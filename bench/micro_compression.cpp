// Micro-benchmarks for the page codecs on realistic page contents, the data
// that page-level compression (§2.4) actually sees.
//
// Two page shapes:
//   adm:    packed ADM-format records (EncodeAdmRecord), the open/closed
//           schema modes' layout.
//   vector: packed compacted vector-format records (EncodeVectorRecord, then
//           inference + compaction against a running schema), the layout a
//           kInferred dataset flushes and the cold scans decompress.
//
//   ./micro_compression --benchmark_filter=vector --benchmark_min_time=0.2
#include <benchmark/benchmark.h>

#include <vector>

#include "format/adm_format.h"
#include "format/vector_format.h"
#include "schema/schema_tree.h"
#include "storage/compressor.h"
#include "workload/workload.h"

namespace tc {
namespace {

Buffer MakeAdmPage(const std::string& workload, size_t page_size) {
  auto gen = MakeGenerator(workload, 3);
  DatasetType type = DatasetType::OpenWithPk("id");
  Buffer page;
  while (page.size() < page_size) {
    Status st = EncodeAdmRecord(gen->NextRecord(), type, &page);
    TC_CHECK(st.ok());
  }
  page.resize(page_size);
  return page;
}

// `count` consecutive pages of one record stream.
std::vector<Buffer> MakeVectorPages(const std::string& workload, size_t page_size,
                                    size_t count) {
  auto gen = MakeGenerator(workload, 3);
  DatasetType type = gen->OpenType();
  Schema schema;
  std::vector<Buffer> pages(count);
  Buffer raw;
  for (Buffer& page : pages) {
    while (page.size() < page_size) {
      raw.clear();
      TC_CHECK(EncodeVectorRecord(gen->NextRecord(), type, &raw).ok());
      TC_CHECK(InferAndCompactVectorRecord(VectorRecordView(raw.data(), raw.size()),
                                           type, &schema, &page)
                   .ok());
    }
    page.resize(page_size);
  }
  return pages;
}

Buffer MakePage(bool vector, const std::string& workload, size_t page_size) {
  return vector ? MakeVectorPages(workload, page_size, 1)[0]
                : MakeAdmPage(workload, page_size);
}

void BM_Compress(benchmark::State& state, bool vector,
                 const std::string& workload) {
  size_t page_size = static_cast<size_t>(state.range(0));
  Buffer page = MakePage(vector, workload, page_size);
  auto codec = GetCompressor(CompressionKind::kSnappy);
  Buffer out;
  for (auto _ : state) {
    out.clear();
    Status st = codec->Compress(page.data(), page.size(), &out);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page_size));
  state.counters["ratio"] =
      static_cast<double>(page.size()) / static_cast<double>(out.size());
}
BENCHMARK_CAPTURE(BM_Compress, twitter, false, std::string("twitter"))
    ->Arg(4096)->Arg(32768)->Arg(131072);
BENCHMARK_CAPTURE(BM_Compress, sensors, false, std::string("sensors"))
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Compress, vector_twitter, true, std::string("twitter"))
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Compress, vector_sensors, true, std::string("sensors"))
    ->Arg(32768);

void BM_Decompress(benchmark::State& state, bool vector,
                   const std::string& workload, CompressionKind kind) {
  size_t page_size = static_cast<size_t>(state.range(0));
  Buffer page = MakePage(vector, workload, page_size);
  auto codec = GetCompressor(kind);
  Buffer compressed;
  TC_CHECK(codec->Compress(page.data(), page.size(), &compressed).ok());
  Buffer out(page_size);
  size_t n = 0;
  for (auto _ : state) {
    Status st = codec->Decompress(compressed.data(), compressed.size(), out.data(),
                                  out.size(), &n);
    TC_CHECK(st.ok());
    benchmark::DoNotOptimize(out.data());
  }
  TC_CHECK(out == page);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page_size));
}
BENCHMARK_CAPTURE(BM_Decompress, twitter, false, std::string("twitter"),
                  CompressionKind::kSnappy)
    ->Arg(4096)->Arg(32768)->Arg(131072);
BENCHMARK_CAPTURE(BM_Decompress, vector_twitter, true, std::string("twitter"),
                  CompressionKind::kSnappy)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Decompress, vector_sensors, true, std::string("sensors"),
                  CompressionKind::kSnappy)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Decompress, vector_twitter_heavy, true,
                  std::string("twitter"), CompressionKind::kHeavy)
    ->Arg(32768);

// Decoding one page over and over lets the branch predictor learn its op
// sequence. A cache-missing scan never decodes the same page twice in a row,
// so this variant rotates through 64 distinct pages (2 MiB uncompressed).
void BM_DecompressRotating(benchmark::State& state, const std::string& workload) {
  const size_t page_size = 32768;
  std::vector<Buffer> pages = MakeVectorPages(workload, page_size, 64);
  auto codec = GetCompressor(CompressionKind::kSnappy);
  std::vector<Buffer> compressed(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    TC_CHECK(codec->Compress(pages[i].data(), page_size, &compressed[i]).ok());
  }
  Buffer out(page_size);
  size_t n = 0;
  size_t i = 0;
  for (auto _ : state) {
    const Buffer& c = compressed[i++ % compressed.size()];
    TC_CHECK(codec->Decompress(c.data(), c.size(), out.data(), out.size(), &n).ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page_size));
}
BENCHMARK_CAPTURE(BM_DecompressRotating, vector_twitter, std::string("twitter"));
BENCHMARK_CAPTURE(BM_DecompressRotating, vector_sensors, std::string("sensors"));

}  // namespace
}  // namespace tc

BENCHMARK_MAIN();
