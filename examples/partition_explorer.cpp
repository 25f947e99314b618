// Partition explorer: a small NEAT testing campaign.
//
// Sweeps the generated, paper-pruned test suite over the pbkv design-flaw
// variants and prints a failure matrix — which partition type and isolation
// target expose which flaw. This mirrors how NEAT was used to test seven
// systems (Section 6.4), at the scale of this repository's model systems.
//
// Run: ./build/examples/partition_explorer

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "neat/adapters.h"
#include "neat/testgen.h"

namespace {

struct Variant {
  const char* name;
  pbkv::Options options;
};

const char* PartitionLabel(neat::PartitionKind kind) {
  switch (kind) {
    case neat::PartitionKind::kComplete:
      return "complete";
    case neat::PartitionKind::kPartial:
      return "partial";
    case neat::PartitionKind::kSimplex:
      return "simplex";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("NEAT testing campaign over the pbkv design-flaw variants\n\n");

  neat::TestCaseGenerator::Alphabet alphabet;
  alphabet.partitions = {neat::PartitionKind::kComplete, neat::PartitionKind::kPartial,
                         neat::PartitionKind::kSimplex};
  neat::TestCaseGenerator generator(alphabet);
  const auto suite = generator.EnumerateUpTo(3, neat::PaperPruning());
  std::printf("generated %zu test cases (paper pruning, <= 3 events)\n\n", suite.size());

  const std::vector<Variant> variants = {
      {"VoltDB-like (local reads)", pbkv::VoltDbOptions()},
      {"Elasticsearch-like (split votes)", pbkv::ElasticsearchOptions()},
      {"Redis-like (async replication)", pbkv::AsyncReplicationOptions()},
      {"corrected", pbkv::CorrectOptions()},
  };

  std::printf("%-34s %10s %10s %10s %8s\n", "variant / partition type", "complete",
              "partial", "simplex", "total");
  for (const Variant& variant : variants) {
    std::map<neat::PartitionKind, int> failures_by_kind;
    int total = 0;
    for (const neat::TestCase& test_case : suite) {
      if (test_case.front().kind != neat::EventKind::kPartition) {
        continue;
      }
      const auto result = neat::PbkvCaseExecutor(variant.options)(test_case, /*seed=*/1);
      if (result.found_failure) {
        ++failures_by_kind[test_case.front().partition];
        ++total;
      }
    }
    std::printf("%-34s %10d %10d %10d %8d\n", variant.name,
                failures_by_kind[neat::PartitionKind::kComplete],
                failures_by_kind[neat::PartitionKind::kPartial],
                failures_by_kind[neat::PartitionKind::kSimplex], total);
  }

  std::printf("\nEach cell counts test cases whose checkers flagged a catastrophic\n"
              "violation (dirty read, data loss, stale read, reappearance).\n");
  (void)PartitionLabel(neat::PartitionKind::kComplete);
  return 0;
}
