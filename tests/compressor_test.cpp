#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <memory>

#include "common/rng.h"
#include "storage/compressor.h"

namespace tc {
namespace {

Buffer RoundTrip(const Compressor& c, const Buffer& input) {
  Buffer compressed;
  EXPECT_TRUE(c.Compress(input.data(), input.size(), &compressed).ok());
  Buffer output(input.size() + 16);
  size_t out_size = 0;
  Status st = c.Decompress(compressed.data(), compressed.size(), output.data(),
                           output.size(), &out_size);
  EXPECT_TRUE(st.ok()) << st.ToString();
  output.resize(out_size);
  return output;
}

class CompressorRoundTrip : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CompressorRoundTrip, Empty) {
  auto c = GetCompressor(GetParam());
  Buffer input;
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST_P(CompressorRoundTrip, SmallInputs) {
  auto c = GetCompressor(GetParam());
  for (size_t n = 1; n <= 16; ++n) {
    Buffer input(n, static_cast<uint8_t>('a' + n));
    EXPECT_EQ(RoundTrip(*c, input), input) << n;
  }
}

TEST_P(CompressorRoundTrip, RepetitiveData) {
  auto c = GetCompressor(GetParam());
  Buffer input;
  for (int i = 0; i < 1000; ++i) {
    const char* words[] = {"timestamp", "value", "sensor", "reading"};
    const char* w = words[i % 4];
    input.insert(input.end(), w, w + strlen(w));
  }
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST_P(CompressorRoundTrip, RandomIncompressible) {
  auto c = GetCompressor(GetParam());
  Rng rng(1);
  Buffer input(8192);
  for (auto& b : input) b = static_cast<uint8_t>(rng.Next());
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST_P(CompressorRoundTrip, PropertyRandomStructured) {
  auto c = GetCompressor(GetParam());
  Rng rng(7);
  for (int iter = 0; iter < 60; ++iter) {
    Buffer input;
    size_t target = rng.Uniform(100000);
    while (input.size() < target) {
      if (rng.Bernoulli(0.5)) {
        std::string word = rng.AlphaString(1 + rng.Uniform(12));
        size_t reps = 1 + rng.Uniform(20);
        for (size_t r = 0; r < reps; ++r) {
          input.insert(input.end(), word.begin(), word.end());
        }
      } else {
        size_t n = rng.Uniform(64);
        for (size_t i = 0; i < n; ++i) {
          input.push_back(static_cast<uint8_t>(rng.Next()));
        }
      }
    }
    ASSERT_EQ(RoundTrip(*c, input), input) << "iter=" << iter;
  }
}

TEST_P(CompressorRoundTrip, OutputWithinMaxCompressedLength) {
  // PagedFile::Open rejects stored pages longer than this bound, so no input
  // may compress past it: incompressible bytes, small alphabets (short
  // matches between short literals), and 1-byte literals between 4-byte
  // copies, at sizes around the 60-byte literal tag and the 60 KiB block.
  auto c = GetCompressor(GetParam());
  Rng rng(11);
  for (size_t n : {0, 1, 7, 8, 59, 60, 61, 256, 257, 4096, 32768, 61440, 61441,
                   70000}) {
    std::vector<Buffer> inputs;
    for (uint32_t alphabet : {2u, 4u, 256u}) {
      Buffer b(n);
      for (auto& x : b) x = static_cast<uint8_t>(rng.Uniform(alphabet));
      inputs.push_back(std::move(b));
    }
    Buffer interleaved;
    while (interleaved.size() < n) {
      const uint8_t word[] = {'a', 'b', 'c', 'd', static_cast<uint8_t>(rng.Next())};
      interleaved.insert(interleaved.end(), word, word + 5);
    }
    interleaved.resize(n);
    inputs.push_back(std::move(interleaved));
    for (const Buffer& input : inputs) {
      Buffer compressed;
      ASSERT_TRUE(c->Compress(input.data(), input.size(), &compressed).ok());
      EXPECT_LE(compressed.size(), c->MaxCompressedLength(n)) << "n=" << n;
      EXPECT_EQ(RoundTrip(*c, input), input) << "n=" << n;
    }
  }
}

std::vector<CompressionKind> AvailableKinds() {
  std::vector<CompressionKind> kinds = {CompressionKind::kNone,
                                        CompressionKind::kSnappy,
                                        CompressionKind::kHeavy};
  // The real-library codecs join the matrix only when compiled in.
  if (CompressorAvailable(CompressionKind::kZstd)) {
    kinds.push_back(CompressionKind::kZstd);
  }
  if (CompressorAvailable(CompressionKind::kLz4)) {
    kinds.push_back(CompressionKind::kLz4);
  }
  return kinds;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CompressorRoundTrip,
                         ::testing::ValuesIn(AvailableKinds()),
                         [](const auto& info) {
                           std::string n = CompressionKindName(info.param);
                           n[0] = static_cast<char>(std::toupper(n[0]));
                           return n;
                         });

TEST(Snappy, CompressesRedundantPages) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Buffer page(32768);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>("field_name_prefix_"[i % 18]);
  }
  Buffer compressed;
  ASSERT_TRUE(c->Compress(page.data(), page.size(), &compressed).ok());
  EXPECT_LT(compressed.size() * 4, page.size());  // at least 4x on pure repeats
}

TEST(Snappy, DecompressRejectsGarbage) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Buffer garbage = {0xFF, 0xFF, 0xFF, 0x03, 0x02, 0x01};
  Buffer out(1024);
  size_t n = 0;
  EXPECT_FALSE(c->Decompress(garbage.data(), garbage.size(), out.data(),
                             out.size(), &n)
                   .ok());
}

TEST(Snappy, DecompressRejectsTooSmallOutput) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Buffer input(1000, 'x');
  Buffer compressed;
  ASSERT_TRUE(c->Compress(input.data(), input.size(), &compressed).ok());
  Buffer out(10);
  size_t n = 0;
  EXPECT_FALSE(c->Decompress(compressed.data(), compressed.size(), out.data(),
                             out.size(), &n)
                   .ok());
}

TEST(Snappy, LargeInputCrossesBlockBoundaries) {
  auto c = GetCompressor(CompressionKind::kSnappy);
  Rng rng(3);
  Buffer input;
  for (int i = 0; i < 30000; ++i) {
    std::string token = "k" + std::to_string(i % 97) + "=v" +
                        std::to_string(rng.Uniform(10)) + ";";
    input.insert(input.end(), token.begin(), token.end());
  }
  ASSERT_GT(input.size(), 128u * 1024);
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST(Heavy, BeatsSnappyOnStructuredData) {
  // The recompression tier's whole point: on record-shaped redundant data the
  // hash-chain matcher with long copies must produce smaller output than the
  // single-probe snappy tier.
  auto heavy = GetCompressor(CompressionKind::kHeavy);
  auto snappy = GetCompressor(CompressionKind::kSnappy);
  Rng rng(17);
  Buffer input;
  for (int i = 0; i < 4000; ++i) {
    std::string rec = "{\"sensor_id\":" + std::to_string(i % 50) +
                      ",\"reading\":" + std::to_string(rng.Uniform(1000)) +
                      ",\"status\":\"ok\"}";
    input.insert(input.end(), rec.begin(), rec.end());
  }
  Buffer h, s;
  ASSERT_TRUE(heavy->Compress(input.data(), input.size(), &h).ok());
  ASSERT_TRUE(snappy->Compress(input.data(), input.size(), &s).ok());
  EXPECT_LT(h.size(), s.size());
  EXPECT_EQ(RoundTrip(*heavy, input), input);
}

TEST(Heavy, LongCopyOpsRoundTrip) {
  // A long run of one repeated phrase exercises the 4-byte long-copy op
  // (match lengths far past the 64-byte short-copy cap).
  auto c = GetCompressor(CompressionKind::kHeavy);
  Buffer input;
  for (int i = 0; i < 3000; ++i) {
    const char* w = "abcdefghij";
    input.insert(input.end(), w, w + 10);
  }
  Buffer compressed;
  ASSERT_TRUE(c->Compress(input.data(), input.size(), &compressed).ok());
  // 30 KB of a 10-byte cycle must collapse to well under 1 KB with long copies.
  EXPECT_LT(compressed.size(), 1024u);
  EXPECT_EQ(RoundTrip(*c, input), input);
}

TEST(Heavy, SnappyDecoderRejectsLongCopyStreams) {
  auto heavy = GetCompressor(CompressionKind::kHeavy);
  auto snappy = GetCompressor(CompressionKind::kSnappy);
  Buffer input;
  for (int i = 0; i < 1000; ++i) {
    const char* w = "0123456789abcdef";
    input.insert(input.end(), w, w + 16);
  }
  Buffer compressed;
  ASSERT_TRUE(heavy->Compress(input.data(), input.size(), &compressed).ok());
  Buffer out(input.size());
  size_t n = 0;
  // The heavy stream uses tag&3==1 ops the snappy decoder must refuse.
  EXPECT_FALSE(snappy
                   ->Decompress(compressed.data(), compressed.size(),
                                out.data(), out.size(), &n)
                   .ok());
}

// ---------------------------------------------------------------------------
// Decoder edge cases. The production decoder moves whole words and may round
// an op up past its end, so it is checked against a byte-wise reference on
// hand-built streams, decoding into exactly-sized heap buffers (a sanitizer
// build sees any overshoot) and into oversized sentinel-filled buffers (any
// write past the declared length shows in every build).
// ---------------------------------------------------------------------------

// Byte-wise reference for the shared snappy/heavy stream layout: one byte at
// a time, every bound checked before it is touched.
bool ReferenceDecode(bool allow_long, const Buffer& in, Buffer* out) {
  const uint8_t* p = in.data();
  const uint8_t* limit = p + in.size();
  uint64_t expected = 0;
  size_t consumed = GetVarint64(p, limit, &expected);
  if (consumed == 0 || expected > (1u << 24)) return false;
  p += consumed;
  out->assign(expected, 0);
  size_t pos = 0;
  while (p < limit) {
    uint8_t tag = *p++;
    size_t len;
    if ((tag & 3) == 0) {
      len = (tag >> 2) + 1;
      if (len == 61) {
        if (limit - p < 1) return false;
        len = static_cast<size_t>(*p++) + 1;
      } else if (len == 62) {
        if (limit - p < 2) return false;
        len = static_cast<size_t>(p[0] | (p[1] << 8)) + 1;
        p += 2;
      }
      if (static_cast<size_t>(limit - p) < len || expected - pos < len) return false;
      for (size_t i = 0; i < len; ++i) (*out)[pos++] = *p++;
      continue;
    }
    if ((tag & 3) == 3 || ((tag & 3) == 1 && !allow_long)) return false;
    if ((tag & 3) == 2) {
      len = (tag >> 2) + 4;
    } else {
      if (limit - p < 1) return false;
      len = ((tag >> 2) | (static_cast<size_t>(*p++) << 6)) + 4;
    }
    if (limit - p < 2) return false;
    size_t offset = static_cast<size_t>(p[0] | (p[1] << 8));
    p += 2;
    if (offset == 0 || offset > pos || expected - pos < len) return false;
    for (size_t i = 0; i < len; ++i, ++pos) (*out)[pos] = (*out)[pos - offset];
  }
  return pos == expected;
}

// Hand-built stream ops, including forms the encoders never emit.
void PutLiteralOp(Buffer* s, const uint8_t* data, size_t len) {
  if (len <= 60) {
    s->push_back(static_cast<uint8_t>((len - 1) << 2));
  } else if (len <= 256) {
    s->push_back(60 << 2);
    s->push_back(static_cast<uint8_t>(len - 1));
  } else {
    s->push_back(61 << 2);
    s->push_back(static_cast<uint8_t>((len - 1) & 0xff));
    s->push_back(static_cast<uint8_t>((len - 1) >> 8));
  }
  s->insert(s->end(), data, data + len);
}

// A snappy copy op (4 <= len <= 67) or, with `long_op`, the heavy codec's
// long-copy op (4 <= len <= 16387).
void PutCopyOp(Buffer* s, size_t offset, size_t len, bool long_op) {
  if (long_op) {
    size_t v = len - 4;
    s->push_back(static_cast<uint8_t>(((v & 0x3f) << 2) | 1));
    s->push_back(static_cast<uint8_t>(v >> 6));
  } else {
    s->push_back(static_cast<uint8_t>(((len - 4) << 2) | 2));
  }
  s->push_back(static_cast<uint8_t>(offset & 0xff));
  s->push_back(static_cast<uint8_t>(offset >> 8));
}

Buffer RandomBytes(Rng* rng, size_t n) {
  Buffer b(n);
  for (auto& x : b) x = static_cast<uint8_t>(rng->Next());
  return b;
}

// A stream of `body` ops behind its declared length.
Buffer WithLength(uint64_t expected, const Buffer& body) {
  Buffer s;
  PutVarint64(&s, expected);
  s.insert(s.end(), body.begin(), body.end());
  return s;
}

// Decodes `stream` with `kind`'s decoder into an exactly-sized heap buffer
// and into a sentinel-filled buffer with 64 spare bytes; both must match the
// reference and leave the spare bytes untouched.
void ExpectDecodesLikeReference(CompressionKind kind, const Buffer& stream) {
  auto c = GetCompressor(kind);
  Buffer ref;
  ASSERT_TRUE(ReferenceDecode(kind == CompressionKind::kHeavy, stream, &ref));

  std::unique_ptr<uint8_t[]> in(new uint8_t[stream.size()]);
  std::copy(stream.begin(), stream.end(), in.get());
  std::unique_ptr<uint8_t[]> exact(new uint8_t[ref.size()]);
  size_t n = 0;
  Status st = c->Decompress(in.get(), stream.size(), exact.get(), ref.size(), &n);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(n, ref.size());
  ASSERT_TRUE(std::equal(ref.begin(), ref.end(), exact.get()));

  constexpr uint8_t kSentinel = 0xA5;
  Buffer roomy(ref.size() + 64, kSentinel);
  st = c->Decompress(stream.data(), stream.size(), roomy.data(), roomy.size(), &n);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(n, ref.size());
  ASSERT_TRUE(std::equal(ref.begin(), ref.end(), roomy.begin()));
  for (size_t i = ref.size(); i < roomy.size(); ++i) {
    ASSERT_EQ(roomy[i], kSentinel) << "write past the declared length at " << i;
  }
}

TEST(Lz77Decoder, EveryShortOffsetAndLength) {
  // Offsets 1-20 straddle the byte-wise (< 8), 8-byte (8-15) and 16-byte
  // (>= 16) move paths; lengths 4-64 cover one to four 16-byte moves, and
  // 65-67 are the short-copy tag's largest values, which the encoders never
  // emit but a stream may hold (five 16-byte moves). Each copy is decoded far
  // from the end, ending within 64 bytes of it, and ending exactly at it, in
  // both the short-copy form and the heavy codec's long-copy form.
  Rng rng(29);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    for (bool long_op : {false, true}) {
      if (long_op && kind != CompressionKind::kHeavy) continue;
      for (size_t offset = 1; offset <= 20; ++offset) {
        for (size_t len = 4; len <= 67; ++len) {
          for (size_t tail : {size_t{0}, size_t{1}, size_t{7}, size_t{15},
                              size_t{33}, size_t{63}, size_t{200}}) {
            SCOPED_TRACE(::testing::Message()
                         << CompressionKindName(kind) << " long_op=" << long_op
                         << " offset=" << offset << " len=" << len
                         << " tail=" << tail);
            Buffer head = RandomBytes(&rng, 24);
            Buffer rest = RandomBytes(&rng, tail);
            Buffer body;
            PutLiteralOp(&body, head.data(), head.size());
            PutCopyOp(&body, offset, len, long_op);
            if (tail > 0) PutLiteralOp(&body, rest.data(), rest.size());
            ExpectDecodesLikeReference(kind, WithLength(24 + len + tail, body));
          }
        }
      }
    }
  }
}

TEST(Lz77Decoder, BackToBackCopiesAndLiterals) {
  // Runs of short ops, the shape of real pages: each op's slack writes must
  // be overwritten by the next one, never left behind.
  Rng rng(31);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    for (int iter = 0; iter < 300; ++iter) {
      Buffer body;
      size_t pos = 0;
      Buffer first = RandomBytes(&rng, 1 + rng.Uniform(40));
      PutLiteralOp(&body, first.data(), first.size());
      pos += first.size();
      size_t ops = 1 + rng.Uniform(60);
      for (size_t i = 0; i < ops; ++i) {
        if (rng.Bernoulli(0.5)) {
          Buffer lit = RandomBytes(&rng, 1 + rng.Uniform(rng.Bernoulli(0.8) ? 16 : 300));
          PutLiteralOp(&body, lit.data(), lit.size());
          pos += lit.size();
        } else {
          size_t offset = 1 + rng.Uniform(pos < 80 ? pos : 80);
          size_t len = 4 + rng.Uniform(61);
          PutCopyOp(&body, offset, len, /*long_op=*/false);
          pos += len;
        }
      }
      ExpectDecodesLikeReference(kind, WithLength(pos, body));
    }
  }
}

TEST(Lz77Decoder, HeavyLongCopies) {
  // Long copies up to the op's 16387-byte cap, at offsets on both sides of
  // the 8- and 16-byte move thresholds, ending far from, near, and exactly
  // at the declared length.
  Rng rng(37);
  for (size_t offset : {1, 7, 8, 15, 16}) {
    for (size_t len : {65, 100, 1000, 4099, 16387}) {
      for (size_t tail : {size_t{0}, size_t{5}, size_t{40}, size_t{300}}) {
        SCOPED_TRACE(::testing::Message() << "offset=" << offset << " len=" << len
                                          << " tail=" << tail);
        Buffer head = RandomBytes(&rng, 16);
        Buffer rest = RandomBytes(&rng, tail);
        Buffer body;
        PutLiteralOp(&body, head.data(), head.size());
        PutCopyOp(&body, offset, len, /*long_op=*/true);
        if (tail > 0) PutLiteralOp(&body, rest.data(), rest.size());
        ExpectDecodesLikeReference(CompressionKind::kHeavy,
                                   WithLength(16 + len + tail, body));
      }
    }
  }
}

TEST(Lz77Decoder, LiteralsOfEveryLengthNearTheEnd) {
  // Literals of 1-300 bytes (all three tag forms) ending exactly at, and
  // within 64 bytes of, the declared length.
  Rng rng(41);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    for (size_t len = 1; len <= 300; ++len) {
      for (size_t tail : {size_t{0}, size_t{3}, size_t{16}, size_t{64}}) {
        SCOPED_TRACE(::testing::Message() << "len=" << len << " tail=" << tail);
        Buffer lit = RandomBytes(&rng, len);
        Buffer rest = RandomBytes(&rng, tail);
        Buffer body;
        PutLiteralOp(&body, lit.data(), lit.size());
        if (tail > 0) PutLiteralOp(&body, rest.data(), rest.size());
        ExpectDecodesLikeReference(kind, WithLength(len + tail, body));
      }
    }
  }
}

TEST(Lz77Decoder, EncoderOutputMatchesReference) {
  // Real encoder output (short and long copies, literal runs) decodes the
  // same through both decoders, into exact and oversized buffers.
  Rng rng(43);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    for (int iter = 0; iter < 40; ++iter) {
      Buffer input;
      size_t target = rng.Uniform(40000);
      while (input.size() < target) {
        std::string word = rng.AlphaString(1 + rng.Uniform(20));
        size_t reps = 1 + rng.Uniform(30);
        for (size_t r = 0; r < reps; ++r) input.insert(input.end(), word.begin(), word.end());
        Buffer noise = RandomBytes(&rng, rng.Uniform(24));
        input.insert(input.end(), noise.begin(), noise.end());
      }
      Buffer compressed;
      ASSERT_TRUE(GetCompressor(kind)->Compress(input.data(), input.size(), &compressed).ok());
      Buffer ref;
      ASSERT_TRUE(ReferenceDecode(kind == CompressionKind::kHeavy, compressed, &ref));
      ASSERT_EQ(ref, input);
      ExpectDecodesLikeReference(kind, compressed);
    }
  }
}

// Expects `kind`'s decoder to reject `stream` with Corruption, both into an
// exactly-sized buffer and into a roomy one. The stream is read from an
// exactly-sized heap copy, so a sanitizer build also sees any over-read of a
// truncated op.
void ExpectRejected(CompressionKind kind, const Buffer& stream, size_t exact_cap) {
  auto c = GetCompressor(kind);
  std::unique_ptr<uint8_t[]> in(new uint8_t[stream.size()]);
  std::copy(stream.begin(), stream.end(), in.get());
  std::unique_ptr<uint8_t[]> exact(new uint8_t[exact_cap]);
  Buffer roomy(exact_cap + 4096);
  size_t n = 0;
  Status st = c->Decompress(in.get(), stream.size(), exact.get(), exact_cap, &n);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  st = c->Decompress(in.get(), stream.size(), roomy.data(), roomy.size(), &n);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(Lz77Decoder, RejectsEveryMalformedOp) {
  // Each malformed op is the stream's last, and the declared length is what
  // the op would produce if it were accepted, so only the op's own check can
  // reject it (not the final length match).
  Rng rng(47);
  // Two prefixes: a short one (ops decoded byte-wise near the start) and one
  // with ample room left (ops offered to the word moves).
  for (size_t prefix : {size_t{8}, size_t{300}}) {
    Buffer head = RandomBytes(&rng, prefix);
    Buffer lit;
    PutLiteralOp(&lit, head.data(), head.size());
    for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
      SCOPED_TRACE(::testing::Message() << CompressionKindName(kind) << " prefix=" << prefix);
      auto expect_rejected = [&](std::initializer_list<uint8_t> op, size_t produces) {
        Buffer body = lit;
        body.insert(body.end(), op);
        ExpectRejected(kind, WithLength(prefix + produces, body), prefix + produces);
      };
      // Copy offset 0, offsets one past the bytes written so far, the
      // largest offset.
      const uint8_t far_lo = static_cast<uint8_t>((prefix + 1) & 0xff);
      const uint8_t far_hi = static_cast<uint8_t>((prefix + 1) >> 8);
      expect_rejected({(4 - 4) << 2 | 2, 0, 0}, 4);
      expect_rejected({(20 - 4) << 2 | 2, 0, 0}, 20);
      expect_rejected({(4 - 4) << 2 | 2, far_lo, far_hi}, 4);
      expect_rejected({(20 - 4) << 2 | 2, far_lo, far_hi}, 20);
      expect_rejected({(4 - 4) << 2 | 2, 0xff, 0xff}, 4);
      // Truncated ops: literal length bytes, literal data, copy offset.
      expect_rejected({60 << 2}, 1);
      expect_rejected({61 << 2, 0x10}, 0x11);
      expect_rejected({(10 - 1) << 2, 'a', 'b'}, 10);
      expect_rejected({(4 - 4) << 2 | 2}, 4);
      expect_rejected({(4 - 4) << 2 | 2, 1}, 4);
      // An unknown tag, and a stream that ends before the declared length.
      expect_rejected({3}, 0);
      expect_rejected({}, 400);
      // Truncated long copy (extra length byte, then offset); a snappy
      // decoder rejects the op before it gets that far.
      expect_rejected({1}, 4);
      expect_rejected({1, 0, 4}, 4);
    }
    // A long copy in a snappy stream is rejected even when well formed.
    Buffer body = lit;
    PutCopyOp(&body, 4, 100, /*long_op=*/true);
    Buffer stream = WithLength(prefix + 100, body);
    ExpectRejected(CompressionKind::kSnappy, stream, prefix + 100);
    ExpectDecodesLikeReference(CompressionKind::kHeavy, stream);
  }
}

TEST(Lz77Decoder, RejectsOpsThatOverrunTheDeclaredLength) {
  // Copies and literals that would end one byte past the declared length,
  // both near the start of a long output and at its end, and a declared
  // length larger than the output buffer. A copy that overruns is also
  // followed by a literal, which must not be decoded past the end either.
  Rng rng(53);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    for (size_t len : {4, 16, 17, 64, 65, 66, 67}) {
      SCOPED_TRACE(::testing::Message() << CompressionKindName(kind) << " len=" << len);
      Buffer head = RandomBytes(&rng, 32);
      Buffer body;
      PutLiteralOp(&body, head.data(), head.size());
      PutCopyOp(&body, 16, len, /*long_op=*/false);
      ExpectRejected(kind, WithLength(32 + len - 1, body), 32 + len - 1);
      Buffer trailer = RandomBytes(&rng, 16);
      PutLiteralOp(&body, trailer.data(), trailer.size());
      ExpectRejected(kind, WithLength(32 + len - 1, body), 32 + len - 1);

      Buffer lit = RandomBytes(&rng, len);
      Buffer body2;
      PutLiteralOp(&body2, head.data(), head.size());
      PutLiteralOp(&body2, lit.data(), lit.size());
      ExpectRejected(kind, WithLength(32 + len - 1, body2), 32 + len - 1);
    }
    Buffer long_body;
    Buffer head = RandomBytes(&rng, 32);
    PutLiteralOp(&long_body, head.data(), head.size());
    PutCopyOp(&long_body, 16, 64, /*long_op=*/false);
    Buffer stream = WithLength(96, long_body);
    auto c = GetCompressor(kind);
    Buffer small(95);
    size_t n = 0;
    EXPECT_TRUE(c->Decompress(stream.data(), stream.size(), small.data(),
                              small.size(), &n)
                    .IsCorruption());
    // An unterminated length varint.
    ExpectRejected(kind, Buffer{0x80, 0x80}, 16);
  }
}

TEST(Lz77Decoder, AgreesWithReferenceOnMutatedStreams) {
  // Random byte flips, truncations and extensions of real streams: the
  // decoder must accept exactly what the reference accepts, with the same
  // output, and never write past the declared length.
  Rng rng(59);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    auto c = GetCompressor(kind);
    for (int iter = 0; iter < 2000; ++iter) {
      Buffer input;
      size_t target = 1 + rng.Uniform(600);
      while (input.size() < target) {
        std::string w = rng.AlphaString(1 + rng.Uniform(6));
        for (int r = 0; r < 3; ++r) input.insert(input.end(), w.begin(), w.end());
      }
      Buffer stream;
      ASSERT_TRUE(c->Compress(input.data(), input.size(), &stream).ok());
      size_t edits = 1 + rng.Uniform(3);
      for (size_t e = 0; e < edits; ++e) {
        switch (rng.Uniform(3)) {
          case 0:
            stream[rng.Uniform(stream.size())] = static_cast<uint8_t>(rng.Next());
            break;
          case 1:
            stream.resize(rng.Uniform(stream.size() + 1));
            break;
          default:
            stream.push_back(static_cast<uint8_t>(rng.Next()));
        }
        if (stream.empty()) stream.push_back(0);
      }
      uint64_t declared = 0;
      size_t n = 0;
      if (GetVarint64(stream.data(), stream.data() + stream.size(), &declared) == 0 ||
          declared > (1u << 16)) {
        Buffer small(64);
        ASSERT_FALSE(c->Decompress(stream.data(), stream.size(), small.data(),
                                   small.size(), &n)
                         .ok());
        continue;
      }
      Buffer ref;
      bool ref_ok = ReferenceDecode(kind == CompressionKind::kHeavy, stream, &ref);
      Buffer out(declared + 64, 0xA5);
      Status st = c->Decompress(stream.data(), stream.size(), out.data(),
                                static_cast<size_t>(declared), &n);
      ASSERT_EQ(st.ok(), ref_ok) << "iter=" << iter << " " << st.ToString();
      for (size_t i = declared; i < out.size(); ++i) ASSERT_EQ(out[i], 0xA5);
      if (ref_ok) {
        ASSERT_EQ(n, ref.size());
        ASSERT_TRUE(std::equal(ref.begin(), ref.end(), out.begin()));
      }
    }
  }
}

TEST(CompressionKindHelpers, ParseNameAvailable) {
  CompressionKind k;
  EXPECT_TRUE(ParseCompressionKind("heavy", &k));
  EXPECT_EQ(k, CompressionKind::kHeavy);
  EXPECT_TRUE(ParseCompressionKind("SNAPPY", &k));
  EXPECT_EQ(k, CompressionKind::kSnappy);
  EXPECT_TRUE(ParseCompressionKind("none", &k));
  EXPECT_EQ(k, CompressionKind::kNone);
  EXPECT_TRUE(ParseCompressionKind("zstd", &k));
  EXPECT_EQ(k, CompressionKind::kZstd);
  EXPECT_TRUE(ParseCompressionKind("lz4", &k));
  EXPECT_EQ(k, CompressionKind::kLz4);
  EXPECT_FALSE(ParseCompressionKind("gzip", &k));

  EXPECT_STREQ(CompressionKindName(CompressionKind::kHeavy), "heavy");
  EXPECT_TRUE(CompressorAvailable(CompressionKind::kNone));
  EXPECT_TRUE(CompressorAvailable(CompressionKind::kSnappy));
  EXPECT_TRUE(CompressorAvailable(CompressionKind::kHeavy));
  // zstd/lz4 availability depends on the build; GetCompressor must agree.
  EXPECT_EQ(CompressorAvailable(CompressionKind::kZstd),
            GetCompressor(CompressionKind::kZstd) != nullptr);
  EXPECT_EQ(CompressorAvailable(CompressionKind::kLz4),
            GetCompressor(CompressionKind::kLz4) != nullptr);
}

TEST(CompressionKindHelpers, FromEnv) {
  ::setenv("TC_TEST_CODEC", "heavy", 1);
  EXPECT_EQ(CompressionKindFromEnv("TC_TEST_CODEC", CompressionKind::kSnappy),
            CompressionKind::kHeavy);
  ::setenv("TC_TEST_CODEC", "not-a-codec", 1);
  EXPECT_EQ(CompressionKindFromEnv("TC_TEST_CODEC", CompressionKind::kSnappy),
            CompressionKind::kSnappy);
  ::unsetenv("TC_TEST_CODEC");
  EXPECT_EQ(CompressionKindFromEnv("TC_TEST_CODEC", CompressionKind::kNone),
            CompressionKind::kNone);
}

}  // namespace
}  // namespace tc
