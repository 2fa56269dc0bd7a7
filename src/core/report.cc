#include "core/report.h"

#include <cstdio>

namespace gordian {

namespace {

std::string Quote(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

std::string Num(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", d);
  return buf;
}

// Names of the attributes in `attrs` as a JSON array.
std::string AttrsJson(const Schema& schema, const AttributeSet& attrs) {
  std::string out = "[";
  bool first = true;
  attrs.ForEach([&](int a) {
    if (!first) out += ", ";
    first = false;
    out += Quote(schema.name(a));
  });
  return out + "]";
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string ProfileToJson(const DatabaseProfile& profile) {
  std::string out = "{\n  \"tables\": [\n";
  for (size_t i = 0; i < profile.tables.size(); ++i) {
    const DatabaseProfile::Entry& e = profile.tables[i];
    const Schema& schema = e.table->schema();
    out += "    {\n";
    out += "      \"name\": " + Quote(e.name) + ",\n";
    out += "      \"rows\": " + std::to_string(e.table->num_rows()) + ",\n";
    out += "      \"attributes\": [";
    for (int c = 0; c < e.table->num_columns(); ++c) {
      if (c > 0) out += ", ";
      out += Quote(schema.name(c));
    }
    out += "],\n";
    out += "      \"no_keys\": ";
    out += e.result.no_keys ? "true" : "false";
    out += ",\n      \"incomplete\": ";
    out += e.result.incomplete ? "true" : "false";
    out += ",\n      \"sampled\": ";
    out += e.result.sampled ? "true" : "false";
    out += ",\n      \"keys\": [\n";
    for (size_t k = 0; k < e.result.keys.size(); ++k) {
      const DiscoveredKey& key = e.result.keys[k];
      out += "        {\"attributes\": " + AttrsJson(schema, key.attrs);
      out += ", \"estimated_strength\": " + Num(key.estimated_strength);
      if (key.exact_strength >= 0) {
        out += ", \"strength\": " + Num(key.exact_strength);
      }
      out += "}";
      if (k + 1 < e.result.keys.size()) out += ",";
      out += "\n";
    }
    out += "      ],\n";
    out += "      \"non_keys\": [\n";
    for (size_t k = 0; k < e.result.non_keys.size(); ++k) {
      out += "        " + AttrsJson(schema, e.result.non_keys[k]);
      if (k + 1 < e.result.non_keys.size()) out += ",";
      out += "\n";
    }
    out += "      ],\n";
    const GordianStats& st = e.result.stats;
    out += "      \"stats\": {\"seconds\": " + Num(st.TotalSeconds()) +
           ", \"tree_nodes\": " + std::to_string(st.base_tree_nodes) +
           ", \"merges\": " + std::to_string(st.merges_performed) +
           ", \"peak_memory_bytes\": " +
           std::to_string(st.peak_memory_bytes) + "}\n";
    out += "    }";
    if (i + 1 < profile.tables.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"foreign_keys\": [\n";
  for (size_t i = 0; i < profile.foreign_keys.size(); ++i) {
    const ForeignKeyCandidate& fk = profile.foreign_keys[i];
    const DatabaseProfile::Entry& from = profile.tables[fk.referencing_table];
    const DatabaseProfile::Entry& to = profile.tables[fk.referenced_table];
    out += "    {\"from_table\": " + Quote(from.name) + ", \"columns\": [";
    for (size_t c = 0; c < fk.foreign_key_columns.size(); ++c) {
      if (c > 0) out += ", ";
      out += Quote(from.table->schema().name(fk.foreign_key_columns[c]));
    }
    out += "], \"to_table\": " + Quote(to.name) + ", \"key\": " +
           AttrsJson(to.table->schema(), fk.referenced_key) +
           ", \"coverage\": " + Num(fk.coverage) + "}";
    if (i + 1 < profile.foreign_keys.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string ProfileToDot(const DatabaseProfile& profile) {
  std::string out = "digraph schema {\n  rankdir=LR;\n  node [shape=record, fontsize=10];\n";
  for (size_t i = 0; i < profile.tables.size(); ++i) {
    const DatabaseProfile::Entry& e = profile.tables[i];
    // Mark attributes of the smallest discovered key as the PK candidate.
    AttributeSet pk;
    if (!e.result.keys.empty()) pk = e.result.keys.front().attrs;
    std::string label = e.name;
    for (int c = 0; c < e.table->num_columns(); ++c) {
      label += "|";
      label += "<f" + std::to_string(c) + "> ";
      if (pk.Test(c)) label += "* ";
      // Escape DOT record separators in names.
      for (char ch : e.table->schema().name(c)) {
        if (ch == '|' || ch == '{' || ch == '}' || ch == '<' || ch == '>') {
          label += '\\';
        }
        label += ch;
      }
    }
    out += "  t" + std::to_string(i) + " [label=\"" + label + "\"];\n";
  }
  for (const ForeignKeyCandidate& fk : profile.foreign_keys) {
    out += "  t" + std::to_string(fk.referencing_table) + ":f" +
           std::to_string(fk.foreign_key_columns.front()) + " -> t" +
           std::to_string(fk.referenced_table) + ":f" +
           std::to_string(fk.referenced_key.First());
    if (fk.coverage < 1.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " [label=\"%.0f%%\", style=dashed]",
                    fk.coverage * 100);
      out += buf;
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace gordian
