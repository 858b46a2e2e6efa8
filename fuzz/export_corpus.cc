// Writes the generated seed corpus to disk, one file per input:
//   fuzz_export_corpus <out-root>   → <out-root>/<target>/<NN>-<label>.bin
//
// Run against tests/testdata/fuzz/ to refresh the checked-in corpora, or
// against a scratch directory to seed a libFuzzer run. File contents are
// deterministic (the generators use fixed replicas and no clocks), so a
// refresh only produces diffs when an encoder's output changed — which is
// exactly when the corpus *should* change. fuzz_corpus_test's
// CheckedInCorpusMatchesGenerator fails until the refresh is committed.

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "fuzz/harness.h"
#include "fuzz/seed_corpus.h"

int main(int argc, char** argv) {
  using namespace epidemic::fuzz;
  if (argc != 2) {
    std::fprintf(stderr, "usage: fuzz_export_corpus <out-root>\n");
    return 2;
  }
  const std::string root = argv[1];
  mkdir(root.c_str(), 0755);

  for (const TargetInfo& target : AllTargets()) {
    const std::string dir = root + "/" + target.name;
    mkdir(dir.c_str(), 0755);
    size_t index = 0;
    for (const SeedInput& seed : BuildSeedCorpus(target.name)) {
      const std::string path = dir + "/" + SeedFileName(index++, seed.label);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      out.write(seed.bytes.data(),
                static_cast<std::streamsize>(seed.bytes.size()));
    }
    std::printf("%-16s %zu seeds\n", target.name, index);
  }
  return 0;
}
