// Always-on corpus replay: every checked-in fuzz input runs through every fuzz
// target under the normal test harness, so the parser/schema/page-decoder/
// WAL-replay invariants the fuzzers enforce are exercised in every CI run —
// clang and libFuzzer are only needed to EXTEND the corpus, not to check it.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz_targets.h"

namespace tc {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(TC_FUZZ_CORPUS_DIR)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<uint8_t> ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(FuzzCorpusTest, CorpusIsCheckedIn) {
  // An empty corpus would turn the replay tests into silent no-ops.
  EXPECT_GE(CorpusFiles().size(), 15u);
}

TEST(FuzzCorpusTest, ParseAdmReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    // The target TC_CHECK-aborts on an invariant violation; returning is the
    // pass condition.
    EXPECT_EQ(0, FuzzParseAdm(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, DeserializeSchemaReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    EXPECT_EQ(0, FuzzDeserializeSchema(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, DecompressReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    EXPECT_EQ(0, FuzzDecompress(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, DecompressHasStreamSeeds) {
  // The decoder seeds must be present, or the replay above only ever sees
  // text and schema blobs.
  size_t streams = 0;
  for (const auto& path : CorpusFiles()) {
    if (path.filename().string().rfind("lz77_", 0) == 0) ++streams;
  }
  EXPECT_GE(streams, 10u);
}

TEST(FuzzCorpusTest, WalReplayReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    std::vector<uint8_t> bytes = ReadAll(path);
    EXPECT_EQ(0, FuzzWalReplay(bytes.data(), bytes.size()));
  }
}

TEST(FuzzCorpusTest, WalReplayHasLogSeeds) {
  size_t logs = 0;
  for (const auto& path : CorpusFiles()) {
    if (path.filename().string().rfind("wal_", 0) == 0) ++logs;
  }
  EXPECT_GE(logs, 8u);
}

TEST(FuzzCorpusTest, DeepNestingRejectedCleanly) {
  // The depth guard must kick in long before the stack would overflow.
  std::string deep(100000, '[');
  EXPECT_EQ(0, FuzzParseAdm(reinterpret_cast<const uint8_t*>(deep.data()),
                            deep.size()));
}

TEST(FuzzCorpusTest, OverflowingDoubleRejectedCleanly) {
  std::string text = "{\"x\": 1e999}";
  EXPECT_EQ(0, FuzzParseAdm(reinterpret_cast<const uint8_t*>(text.data()),
                            text.size()));
}

}  // namespace
}  // namespace tc
