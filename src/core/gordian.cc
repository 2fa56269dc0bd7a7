#include "core/gordian.h"

#include <algorithm>

#include "core/pipeline.h"

namespace gordian {

KeyDiscoveryResult FindKeys(const Table& table, const GordianOptions& options) {
  // The facade is a thin composition over the staged pipeline: encode,
  // frozen tree build, traversal, key conversion, validation. See
  // core/pipeline.h and docs/architecture.md.
  ProfileSession session(options);
  KeyDiscoveryResult result;
  // Only a table wider than AttributeSet::kMaxAttributes fails, and its
  // result is already incomplete.
  (void)session.Run(table, &result);
  return result;
}

void ValidateKeys(const Table& full_table, KeyDiscoveryResult* result) {
  for (DiscoveredKey& k : result->keys) {
    // Fingerprint-based distinct counting: validating hundreds of candidate
    // keys against a large table must not pay a sort per key.
    k.exact_strength =
        static_cast<double>(full_table.DistinctCountFast(k.attrs)) /
        static_cast<double>(std::max<int64_t>(1, full_table.num_rows()));
  }
}

VerificationReport VerifyResult(const Table& table,
                                const KeyDiscoveryResult& result) {
  VerificationReport report;
  auto problem = [&](const std::string& msg) {
    report.ok = false;
    if (report.problems.size() < 20) report.problems.push_back(msg);
  };

  if (result.no_keys) {
    if (table.IsUnique(AttributeSet::FirstN(table.num_columns()))) {
      problem("result claims no keys exist, but rows are distinct");
    }
    return report;
  }

  for (const DiscoveredKey& key : result.keys) {
    if (!result.sampled && !table.IsUnique(key.attrs)) {
      problem("reported key is not unique: " + key.attrs.ToString());
    }
    key.attrs.ForEach([&](int a) {
      AttributeSet smaller = key.attrs;
      smaller.Reset(a);
      if (!smaller.Empty() && !result.sampled && table.IsUnique(smaller)) {
        problem("reported key is not minimal: " + key.attrs.ToString());
      }
    });
  }
  for (const AttributeSet& nk : result.non_keys) {
    if (table.IsUnique(nk)) {
      problem("reported non-key is actually unique: " + nk.ToString());
    }
  }
  for (size_t i = 0; i < result.keys.size(); ++i) {
    for (size_t j = 0; j < result.keys.size(); ++j) {
      if (i != j && result.keys[i].attrs.Covers(result.keys[j].attrs)) {
        problem("key list is not an antichain: " +
                result.keys[i].attrs.ToString() + " covers " +
                result.keys[j].attrs.ToString());
      }
    }
  }
  for (size_t i = 0; i < result.non_keys.size(); ++i) {
    for (size_t j = 0; j < result.non_keys.size(); ++j) {
      if (i != j && result.non_keys[i].Covers(result.non_keys[j])) {
        problem("non-key list is not an antichain");
      }
    }
  }
  return report;
}

std::string FormatResult(const Table& table, const KeyDiscoveryResult& result) {
  std::string out;
  if (result.no_keys) {
    return "no keys exist (some entity occurs more than once)\n";
  }
  out += "keys (" + std::to_string(result.keys.size()) + "):\n";
  for (const DiscoveredKey& k : result.keys) {
    out += "  " + table.schema().Describe(k.attrs);
    if (result.sampled) {
      out += "  est-strength>=" + std::to_string(k.estimated_strength);
    }
    if (k.exact_strength >= 0) {
      out += "  strength=" + std::to_string(k.exact_strength);
    }
    out += "\n";
  }
  out += "non-keys (" + std::to_string(result.non_keys.size()) + "):\n";
  for (const AttributeSet& nk : result.non_keys) {
    out += "  " + table.schema().Describe(nk) + "\n";
  }
  return out;
}

}  // namespace gordian
