#ifndef EPIDEMIC_FUZZ_SEED_CORPUS_H_
#define EPIDEMIC_FUZZ_SEED_CORPUS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace epidemic::fuzz {

struct SeedInput {
  std::string label;  // filesystem-safe, stable across runs
  std::string bytes;
};

/// Deterministic seed corpus for one target, built by running the real
/// encoders over small live replicas: valid frames of every message and
/// flavor (v3 handshakes and replies, epoch probes, conflicts, tombstones)
/// plus a few canonical near-miss inputs (truncations, bad magic). The
/// same inputs are exported to tests/testdata/fuzz/<target>/ by
/// fuzz_export_corpus and replayed in-memory by fuzz_corpus_test.
std::vector<SeedInput> BuildSeedCorpus(const std::string& target);

/// File name of a target's `index`-th seed: "NN-<label>.bin", NN being
/// the index modulo 100 in two digits. fuzz_export_corpus writes these
/// names; fuzz_corpus_test expects them in tests/testdata/fuzz/<target>/.
std::string SeedFileName(size_t index, const std::string& label);

}  // namespace epidemic::fuzz

#endif  // EPIDEMIC_FUZZ_SEED_CORPUS_H_
