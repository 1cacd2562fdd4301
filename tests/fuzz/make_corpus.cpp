// Regenerates the checked-in fuzz corpus under tests/fuzz/corpus/. Seeds come
// from the workload generators (real record shapes for ParseAdm; their
// inferred schemas, serialized, for DeserializeSchema; snappy and heavy
// streams of their vector-format records for the page decoders; logs of
// their records for WAL replay) plus handwritten edge cases. Deterministic —
// rerunning produces identical files.
//
//   ./make_corpus <corpus_dir>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "adm/printer.h"
#include "common/crc32.h"
#include "format/vector_format.h"
#include "lsm/wal.h"
#include "schema/inference.h"
#include "schema/schema_io.h"
#include "schema/schema_tree.h"
#include "storage/compressor.h"
#include "workload/workload.h"

namespace {

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void WriteFile(const std::string& path, const tc::Buffer& bytes) {
  WriteFile(path, std::string(bytes.begin(), bytes.end()));
}

// A hand-built LZ77 stream: declared length, then raw op bytes.
tc::Buffer Stream(uint64_t declared, std::initializer_list<uint8_t> ops) {
  tc::Buffer s;
  tc::PutVarint64(&s, declared);
  s.insert(s.end(), ops);
  return s;
}

// One hand-framed WAL record with a valid CRC: u32 body_len | u32 crc |
// u64 lsn | u8 op | 16 B key | payload. `op` is a raw byte so seeds can
// carry ops the log must refuse.
tc::Buffer WalFrame(uint64_t lsn, uint8_t op, int64_t key,
                    const std::string& payload) {
  tc::Buffer body;
  tc::PutFixed64(&body, lsn);
  tc::PutU8(&body, op);
  tc::PutFixed64(&body, static_cast<uint64_t>(key));
  tc::PutFixed64(&body, 0);
  body.insert(body.end(), payload.begin(), payload.end());
  tc::Buffer frame;
  tc::PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  tc::PutFixed32(&frame, tc::Crc32c(body.data(), body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

// The bytes WriteAheadLog itself writes for `ops`, appended one batch each.
tc::Buffer WalBytes(const std::vector<std::vector<tc::WalAppendOp>>& batches) {
  auto fs = tc::MakeMemFileSystem();
  {
    auto wal = tc::WriteAheadLog::Open(fs, "log", 0).ValueOrDie();
    for (const auto& batch : batches) TC_CHECK(wal->AppendBatch(batch).ok());
  }
  auto file = fs->Open("log").ValueOrDie();
  tc::Buffer bytes(file->Size());
  TC_CHECK(file->Read(0, bytes.size(), bytes.data()).ok());
  return bytes;
}

tc::Buffer Concat(std::initializer_list<tc::Buffer> parts) {
  tc::Buffer out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus_dir>\n", argv[0]);
    return 1;
  }
  std::string dir = argv[1];
  std::filesystem::create_directories(dir);

  // ParseAdm seeds: generator records across all three datasets...
  int n = 0;
  for (const char* dataset : {"twitter", "wos", "sensors"}) {
    auto gen = tc::MakeGenerator(dataset, /*seed=*/7);
    for (int i = 0; i < 4; ++i) {
      std::string text = tc::PrintAdm(gen->NextRecord());
      char name[64];
      std::snprintf(name, sizeof(name), "/adm_%s_%d", dataset, i);
      WriteFile(dir + name, text);
      ++n;
    }
  }
  // ...plus handwritten edge cases the generators never emit.
  const char* handwritten[] = {
      "{}",
      "[]",
      "{{1, 2, 3}}",
      "null",
      "missing",
      "-9223372036854775808",
      "1.7976931348623157e308",
      "{\"a\": [{\"b\": {{\"c\"}}}], \"d\": point(\"1.5,-2.5\")}",
      "{\"t\": datetime(\"2014-01-01T00:00:00\"), \"u\": "
      "uuid(\"5c848e5c-6b6a-498f-8452-8847a2957a48\")}",
      "{\"s\": \"\\\"\\\\\\u00e9\\n\", \"d\": duration(\"P3DT1H\"), "
      "\"w\": date(\"2020-02-29\"), \"x\": time(\"23:59:59\")}",
      "[[[[[[[[1]]]]]]]]",
      "{\"a\": true, \"b\": false, \"deep\": [1, [2, [3, [4.25]]]]}",
  };
  int h = 0;
  for (const char* text : handwritten) {
    WriteFile(dir + "/adm_edge_" + std::to_string(h++), text);
    ++n;
  }

  // DeserializeSchema seeds: schemas inferred from generator records.
  for (const char* dataset : {"twitter", "wos", "sensors"}) {
    auto gen = tc::MakeGenerator(dataset, /*seed=*/11);
    tc::DatasetType declared = gen->OpenType();
    tc::Schema schema;
    for (int i = 0; i < 16; ++i) {
      auto st = tc::InferRecord(&schema, gen->NextRecord(), declared.root.get());
      if (!st.ok()) {
        std::fprintf(stderr, "infer failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    tc::Buffer blob;
    tc::SerializeSchema(schema, &blob);
    WriteFile(dir + "/schema_" + dataset,
              std::string(blob.begin(), blob.end()));
    ++n;
  }
  // An empty schema and a truncated blob round out the schema seeds.
  {
    tc::Schema schema;
    tc::Buffer blob;
    tc::SerializeSchema(schema, &blob);
    WriteFile(dir + "/schema_empty", std::string(blob.begin(), blob.end()));
    if (blob.size() > 2) {
      WriteFile(dir + "/schema_truncated",
                std::string(blob.begin(), blob.begin() + blob.size() / 2));
    }
    n += 2;
  }

  // Page-decoder seeds: short real snappy and heavy streams of vector-format
  // records (a handful of records each, so the fuzzer mutates small inputs)...
  for (const char* dataset : {"twitter", "sensors"}) {
    auto gen = tc::MakeGenerator(dataset, /*seed=*/13);
    tc::DatasetType type = gen->OpenType();
    tc::Buffer page;
    for (int i = 0; i < 3; ++i) {
      auto st = tc::EncodeVectorRecord(gen->NextRecord(), type, &page);
      if (!st.ok()) {
        std::fprintf(stderr, "encode failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    for (tc::CompressionKind kind :
         {tc::CompressionKind::kSnappy, tc::CompressionKind::kHeavy}) {
      tc::Buffer stream;
      if (!tc::GetCompressor(kind)->Compress(page.data(), page.size(), &stream).ok()) {
        return 1;
      }
      WriteFile(dir + "/lz77_" + tc::CompressionKindName(kind) + "_" + dataset,
                stream);
      ++n;
    }
  }
  // ...a heavy stream whose long copies run past the 64-byte short-copy cap...
  {
    std::string text;
    for (int i = 0; i < 200; ++i) text += "sensor_reading_";
    tc::Buffer stream;
    if (!tc::GetCompressor(tc::CompressionKind::kHeavy)
             ->Compress(reinterpret_cast<const uint8_t*>(text.data()), text.size(),
                        &stream)
             .ok()) {
      return 1;
    }
    WriteFile(dir + "/lz77_heavy_long_copies", stream);
    ++n;
  }
  // ...and handwritten edge streams around the decoder's move sizes and its
  // bounds: overlapping offsets 1 and 7, offsets 8 and 16, short copies of
  // 65-67 bytes (valid, but never emitted by the encoders), ops ending
  // exactly at the declared length, and each kind of malformed op.
  const std::vector<std::pair<const char*, tc::Buffer>> edges = {
      {"empty", Stream(0, {})},
      {"offset1_run", Stream(65, {0 << 2, 'x', (64 - 4) << 2 | 2, 1, 0})},
      {"offset7", Stream(27, {6 << 2, 'a', 'b', 'c', 'd', 'e', 'f', 'g',
                              (20 - 4) << 2 | 2, 7, 0})},
      {"offset8", Stream(72, {7 << 2, '0', '1', '2', '3', '4', '5', '6', '7',
                              (64 - 4) << 2 | 2, 8, 0})},
      {"offset16_exact_end",
       Stream(80, {15 << 2, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j',
                   'k', 'l', 'm', 'n', 'o', 'p', (64 - 4) << 2 | 2, 16, 0})},
      {"copy_len67",
       Stream(99, {15 << 2, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j',
                   'k', 'l', 'm', 'n', 'o', 'p', (67 - 4) << 2 | 2, 16, 0,
                   15 << 2, 'q', 'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z',
                   '0', '1', '2', '3', '4', '5'})},
      {"copy_len65_offset20",
       Stream(105, {19 << 2, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j',
                    'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's', 't',
                    (65 - 4) << 2 | 2, 20, 0, 19 << 2, 'A', 'B', 'C', 'D', 'E',
                    'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N', 'O', 'P', 'Q',
                    'R', 'S', 'T'})},
      {"copy_len67_overrun",
       Stream(80, {15 << 2, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j',
                   'k', 'l', 'm', 'n', 'o', 'p', (67 - 4) << 2 | 2, 16, 0,
                   13 << 2, 'q', 'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z',
                   '0', '1', '2', '3'})},
      {"long_copy", Stream(1004, {3 << 2, 'a', 'b', 'c', 'd',
                                  ((1000 - 4) & 0x3f) << 2 | 1, (1000 - 4) >> 6,
                                  4, 0})},
      {"offset0", Stream(20, {3 << 2, 'a', 'b', 'c', 'd', 0 << 2 | 2, 0, 0})},
      {"offset_past_start", Stream(20, {3 << 2, 'a', 'b', 'c', 'd', 0 << 2 | 2, 5, 0})},
      {"copy_overrun", Stream(10, {3 << 2, 'a', 'b', 'c', 'd', (8 - 4) << 2 | 2, 4, 0})},
      {"truncated_offset", Stream(20, {3 << 2, 'a', 'b', 'c', 'd', 0 << 2 | 2, 4})},
      {"truncated_literal_len", Stream(300, {61 << 2, 0x2b})},
      {"unknown_tag", Stream(4, {3})},
  };
  for (const auto& [name, stream] : edges) {
    WriteFile(dir + "/lz77_edge_" + name, stream);
    ++n;
  }

  // WAL-replay seeds: logs WriteAheadLog wrote (Twitter records as payloads,
  // and puts/deletes/overwrites of a few keys), then the damage a crash or a
  // bad disk does to them, plus hand-framed records whose CRC holds but which
  // replay must still refuse or size-check.
  using tc::WalOp;
  {
    auto gen = tc::MakeGenerator("twitter", /*seed=*/7);
    std::vector<std::string> texts;
    for (int i = 0; i < 6; ++i) texts.push_back(tc::PrintAdm(gen->NextRecord()));
    std::vector<tc::WalAppendOp> batch;
    for (size_t i = 0; i < texts.size(); ++i) {
      batch.push_back({WalOp::kPut, tc::BtreeKey{static_cast<int64_t>(i), 0},
                       texts[i]});
    }
    WriteFile(dir + "/wal_twitter", WalBytes({batch}));
    ++n;
  }
  const tc::Buffer mixed = WalBytes({
      {{WalOp::kPut, tc::BtreeKey{1, 0}, "alpha"},
       {WalOp::kPut, tc::BtreeKey{2, 0}, "beta"},
       {WalOp::kPut, tc::BtreeKey{-3, 7}, ""}},
      {{WalOp::kDelete, tc::BtreeKey{1, 0}, ""}},
      {{WalOp::kPut, tc::BtreeKey{2, 0}, "beta-overwritten"},
       {WalOp::kDelete, tc::BtreeKey{9, 0}, ""}},
  });
  tc::Buffer torn(mixed.begin(), mixed.end() - 3);
  tc::Buffer bad_crc = mixed;
  bad_crc[8 + 25 + 2] ^= 0xFF;  // first record's payload: CRC mismatch
  tc::Buffer short_body;
  tc::PutFixed32(&short_body, 10);
  tc::PutFixed32(&short_body, 0);
  short_body.resize(short_body.size() + 10, 0);
  const std::vector<std::pair<const char*, tc::Buffer>> wal_seeds = {
      {"mixed", mixed},
      {"torn_tail", torn},
      {"bad_crc_then_valid", bad_crc},
      {"unknown_op", Concat({WalFrame(1, 1, 5, "ok"), WalFrame(2, 7, 6, "??")})},
      {"op_zero", WalFrame(1, 0, 5, "zero")},
      {"short_body", Concat({WalFrame(1, 1, 5, "ok"), short_body})},
      {"max_lsn", WalFrame(UINT64_MAX, 1, 5, "last")},
      {"oversized_record", WalFrame(1, 1, 5, std::string(5000, 'x'))},
  };
  for (const auto& [name, bytes] : wal_seeds) {
    WriteFile(dir + "/wal_" + name, bytes);
    ++n;
  }

  std::printf("wrote %d corpus files to %s\n", n, dir.c_str());
  return 0;
}
