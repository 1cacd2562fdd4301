#include "fuzz_targets.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adm/parser.h"
#include "adm/printer.h"
#include "common/status.h"
#include "lsm/lsm_tree.h"
#include "lsm/wal.h"
#include "schema/schema_io.h"
#include "storage/buffer_cache.h"
#include "storage/compressor.h"

namespace tc {

int FuzzParseAdm(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto parsed = ParseAdm(text);
  if (!parsed.ok()) return 0;  // rejecting is fine; crashing is not
  // Anything the parser accepts must survive print -> reparse: the printer is
  // the flush path's inverse, so a value that prints unparsably would corrupt
  // a dataset round trip.
  std::string printed = PrintAdm(parsed.value());
  auto reparsed = ParseAdm(printed);
  TC_CHECK(reparsed.ok());
  // And printing must have reached a fixed point (canonical text).
  TC_CHECK(PrintAdm(reparsed.value()) == printed);
  return 0;
}

int FuzzDeserializeSchema(const uint8_t* data, size_t size) {
  size_t consumed = 0;
  auto parsed = DeserializeSchema(data, size, &consumed);
  if (!parsed.ok()) return 0;
  TC_CHECK(consumed <= size);
  // Accepted schemas re-serialize canonically: serialize -> deserialize ->
  // serialize must be a fixed point, or persisted component metadata would
  // drift across rewrites.
  Buffer first;
  SerializeSchema(parsed.value(), &first);
  size_t consumed2 = 0;
  auto again = DeserializeSchema(first.data(), first.size(), &consumed2);
  TC_CHECK(again.ok());
  TC_CHECK(consumed2 == first.size());
  Buffer second;
  SerializeSchema(again.value(), &second);
  TC_CHECK(first == second);
  return 0;
}

int FuzzDecompress(const uint8_t* data, size_t size) {
  // Declared lengths past a few pages only make the target slow; the decoder
  // must reject them against a small buffer all the same.
  constexpr uint64_t kMaxOutput = 1u << 18;
  constexpr uint8_t kSentinel = 0xA5;
  constexpr size_t kGuard = 64;
  uint64_t declared = 0;
  if (GetVarint64(data, data + size, &declared) == 0 || declared > kMaxOutput) {
    declared = 0;
  }
  const size_t cap = static_cast<size_t>(declared);
  auto snappy = GetCompressor(CompressionKind::kSnappy);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    auto codec = GetCompressor(kind);
    // Exactly sized: a sanitizer build reports any write past `cap`.
    std::unique_ptr<uint8_t[]> exact(new uint8_t[cap]);
    size_t n = 0;
    Status st = codec->Decompress(data, size, exact.get(), cap, &n);
    // Sentinel tail: the same overshoot shows in a plain build.
    Buffer guarded(cap + kGuard, kSentinel);
    size_t n2 = 0;
    Status st2 = codec->Decompress(data, size, guarded.data(), cap, &n2);
    TC_CHECK(st.ok() == st2.ok());
    TC_CHECK(std::all_of(guarded.begin() + static_cast<std::ptrdiff_t>(cap),
                         guarded.end(), [](uint8_t b) { return b == kSentinel; }));
    if (!st.ok()) continue;
    TC_CHECK(n == cap && n2 == cap);
    TC_CHECK(std::equal(exact.get(), exact.get() + n, guarded.begin()));
    // Accepted output is ordinary bytes: it must survive a snappy round trip.
    Buffer recompressed;
    TC_CHECK(snappy->Compress(exact.get(), n, &recompressed).ok());
    Buffer back(n);
    size_t n3 = 0;
    TC_CHECK(snappy
                 ->Decompress(recompressed.data(), recompressed.size(),
                              back.data(), back.size(), &n3)
                 .ok());
    TC_CHECK(n3 == n && std::equal(back.begin(), back.end(), exact.get()));
  }
  return 0;
}

int FuzzWalReplay(const uint8_t* data, size_t size) {
  constexpr size_t kFrameFixed = 8 + 8 + 1 + 16;  // header + lsn, op, key
  auto fs = MakeMemFileSystem();
  const std::string path = "db/t.wal";
  {
    auto file = fs->Create(path);
    TC_CHECK(file.ok());
    TC_CHECK(file.value()->Write(0, data, size).ok());
  }

  // The log on its own. Open scans the segment, so it fails exactly when a
  // replay would.
  std::vector<WalRecord> records;
  bool log_ok = false;
  {
    auto wal = WriteAheadLog::Open(fs, path, 0);
    log_ok = wal.ok();
    if (log_ok) {
      TC_CHECK(wal.value()
                   ->Replay([&](const WalRecord& r) {
                     records.push_back(r);
                     return Status::OK();
                   })
                   .ok());
      uint64_t framed = 0;
      for (const WalRecord& r : records) {
        TC_CHECK(r.op == WalOp::kPut || r.op == WalOp::kDelete);
        framed += kFrameFixed + r.payload.size();
      }
      TC_CHECK(framed == wal.value()->size_bytes() && framed <= size);
      TC_CHECK(wal.value()->next_lsn() ==
               (records.empty() ? 1 : records.back().lsn + 1));
    }
  }
  if (log_ok) {
    // Re-encoding the accepted records replays them unchanged.
    auto copy = WriteAheadLog::Open(fs, "db/copy.wal", 0);
    TC_CHECK(copy.ok());
    std::vector<WalAppendOp> ops;
    for (const WalRecord& r : records) {
      ops.push_back(WalAppendOp{
          r.op, r.key,
          std::string_view(reinterpret_cast<const char*>(r.payload.data()),
                           r.payload.size())});
    }
    TC_CHECK(copy.value()->AppendBatch(ops).ok());
    size_t i = 0;
    TC_CHECK(copy.value()
                 ->Replay([&](const WalRecord& r) {
                   TC_CHECK(i < records.size());
                   TC_CHECK(r.op == records[i].op && r.key == records[i].key &&
                            r.payload == records[i].payload);
                   ++i;
                   return Status::OK();
                 })
                 .ok());
    TC_CHECK(i == records.size());
    TC_CHECK(fs->Delete("db/copy.wal").ok());
  }

  // The same bytes as the only log segment of a tree opened after a crash.
  BufferCache cache(4096, 64);
  LsmTreeOptions o;
  o.fs = fs;
  o.cache = &cache;
  o.dir = "db";
  o.name = "t";
  o.page_size = 4096;
  auto tree = LsmTree::Open(std::move(o));
  if (!tree.ok()) {
    // Beyond what the log rejects, recovery only refuses a record too large
    // for a page.
    TC_CHECK(!log_ok || (!records.empty() &&
                         tree.status().code() == StatusCode::kInvalidArgument));
    return 0;
  }
  TC_CHECK(log_ok);
  std::map<BtreeKey, std::optional<Buffer>> model;
  for (const WalRecord& r : records) {
    if (r.op == WalOp::kPut) {
      model[r.key] = r.payload;
    } else {
      model[r.key] = std::nullopt;
    }
  }
  LsmTree::Iterator it(tree.value().get());
  TC_CHECK(it.SeekToFirst().ok());
  auto want = model.begin();
  while (true) {
    while (want != model.end() && !want->second.has_value()) ++want;
    if (!it.Valid()) break;
    TC_CHECK(want != model.end() && it.key() == want->first);
    TC_CHECK(it.payload() ==
             std::string_view(reinterpret_cast<const char*>(want->second->data()),
                              want->second->size()));
    ++want;
    TC_CHECK(it.Next().ok());
  }
  TC_CHECK(want == model.end());
  return 0;
}

}  // namespace tc
