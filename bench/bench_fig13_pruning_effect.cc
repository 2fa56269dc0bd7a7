// Regenerates Figure 13: the effect of GORDIAN's pruning methods. The same
// attribute sweep as Figure 12 is run with all prunings enabled and with
// all prunings disabled, plus per-pruning ablations that the paper's
// design discussion motivates. Those four columns run without agree-set
// seeding, so they measure the paper's algorithm; a fifth adds the seeds
// to full pruning.

#include <cstdio>

#include "bench/harness.h"
#include "core/gordian.h"
#include "datagen/opic_like.h"

namespace gordian {
namespace {

double RunConfig(const Table& t, bool singleton, bool futility,
                 bool single_entity, bool seeding = false) {
  GordianOptions o;
  o.singleton_pruning = singleton;
  o.futility_pruning = futility;
  o.single_entity_pruning = single_entity;
  o.agree_set_seeding = seeding;
  return FindKeys(t, o).stats.TotalSeconds();
}

void Run() {
  bench::Banner("Pruning effect", "Figure 13");
  const int64_t kRows = 20000;
  std::printf("Dataset: OPIC-like catalog table, %lld rows.\n\n",
              static_cast<long long>(kRows));

  Table wide = GenerateOpicLike(kRows, 35, /*seed=*/13001);

  bench::SeriesPrinter table({"#Attributes", "w/ pruning (s)",
                              "no pruning (s)", "only singleton (s)",
                              "only futility (s)", "w/ pruning + seeds (s)"});
  for (int attrs = 5; attrs <= 35; attrs += 5) {
    Table t = wide.ProjectColumns(attrs);
    double with = RunConfig(t, true, true, true);
    double none = RunConfig(t, false, false, false);
    double only_singleton = RunConfig(t, true, false, true);
    double only_futility = RunConfig(t, false, true, false);
    double seeded = RunConfig(t, true, true, true, /*seeding=*/true);
    table.AddRow({std::to_string(attrs), bench::FormatSeconds(with),
                  bench::FormatSeconds(none),
                  bench::FormatSeconds(only_singleton),
                  bench::FormatSeconds(only_futility),
                  bench::FormatSeconds(seeded)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): singleton + futility pruning together\n"
      "speed up processing by orders of magnitude, with the gap widening\n"
      "as attributes are added. Every column includes the tree build,\n"
      "which computes the seeds whether or not the run uses them.\n");
}

}  // namespace
}  // namespace gordian

int main() {
  gordian::Run();
  return 0;
}
