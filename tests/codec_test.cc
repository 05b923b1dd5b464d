// Property and fuzz tests for the bundle stream layer (src/storage/codec/):
// bit-identical round-trips through the bitpack writer over adversarially
// shaped inputs and every bit width, the raw reader that older bundles
// still carry, encoded-size sanity, rejection of the retired tags, and a
// structured decoder fuzz battery (every truncation prefix, single byte
// flips, seeded garbage) over both readers asserting the bounds-checking
// contract — corrupt input returns Status, never crashes, hangs or reads
// out of bounds.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/codec/codec.h"

namespace slpspan {
namespace storage {
namespace codec {
namespace {

std::string Encode(const std::vector<uint64_t>& values) {
  BundleWriter w;
  WriteTaggedU64s(values.data(), values.size(), &w);
  return w.buffer();
}

// A raw (tag 0) stream as earlier writers produced it.
std::string EncodeRaw(const std::vector<uint64_t>& values) {
  BundleWriter w;
  w.U8(kRawTag);
  for (const uint64_t v : values) w.U64(v);
  return w.buffer();
}

Status Decode(const std::string& bytes, size_t count,
              std::vector<uint64_t>* out, size_t* left = nullptr) {
  BundleReader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  Status st = ReadTaggedU64s(&r, count, out);
  if (left != nullptr) *left = r.remaining();
  return st;
}

void ExpectRoundTrip(const std::string& bytes,
                     const std::vector<uint64_t>& values) {
  std::vector<uint64_t> back;
  size_t left = 0;
  const Status st = Decode(bytes, values.size(), &back, &left);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(values, back);
  // The decoder must consume exactly the bytes the encoder produced —
  // anything less would desynchronize the section that follows.
  EXPECT_EQ(0u, left);
}

void ExpectRoundTrip(const std::vector<uint64_t>& values) {
  const std::string bytes = Encode(values);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(kBitPackTag, static_cast<uint8_t>(bytes[0]));
  ExpectRoundTrip(bytes, values);
  ExpectRoundTrip(EncodeRaw(values), values);
}

// ------------------------------------------------------ round-trip axes ----

TEST(CodecRoundTrip, EmptyStream) { ExpectRoundTrip({}); }

TEST(CodecRoundTrip, SingleValues) {
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{0xFFFF}, uint64_t{0x10000}, uint64_t{0xFFFFFFFFull},
        uint64_t{0x100000000ull}, ~uint64_t{0}}) {
    ExpectRoundTrip({v});
  }
}

TEST(CodecRoundTrip, ConstantRuns) {
  for (const size_t len : {size_t{2}, size_t{127}, size_t{128}, size_t{129},
                           size_t{256}, size_t{1000}}) {
    for (const uint64_t v : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
      ExpectRoundTrip(std::vector<uint64_t>(len, v));
    }
  }
}

TEST(CodecRoundTrip, MaxU64Boundaries) {
  // Every power-of-two boundary adjacent to the next, ending at the u64
  // max — exercises bitpack width 64 and the wide shift register.
  std::vector<uint64_t> values;
  for (unsigned b = 0; b < 64; ++b) {
    values.push_back((uint64_t{1} << b) - 1);
    values.push_back(uint64_t{1} << b);
  }
  values.push_back(~uint64_t{0});
  ExpectRoundTrip(values);
}

TEST(CodecRoundTrip, AdversarialDeltas) {
  // Alternating tiny/huge values: the worst case for width-per-block
  // decisions.
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(i % 2 == 0 ? static_cast<uint64_t>(i)
                                : ~uint64_t{0} - static_cast<uint64_t>(i));
  }
  ExpectRoundTrip(values);
}

TEST(CodecRoundTrip, RandomLengthsAcrossBlockBoundaries) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    // Lengths clustered around the 128-value block boundaries.
    const size_t base = (round % 4) * 128;
    const size_t len = base + rng() % 10;
    std::vector<uint64_t> values(len);
    const unsigned width = static_cast<unsigned>(rng() % 65);
    const uint64_t mask =
        width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    for (uint64_t& v : values) v = rng() & mask;
    ExpectRoundTrip(values);
  }
}

TEST(CodecRoundTrip, EveryWidthAndTailLength) {
  // Each width takes one of the unpack paths — zero, the byte-aligned
  // widening loads (8/16/32), the 64-bit refill loop, the wide shift
  // register (58..63) and the straight copy (64) — and the counts hit the
  // loop's byte-at-a-time tail.
  std::mt19937_64 rng(19);
  for (unsigned width = 0; width <= 64; ++width) {
    const uint64_t mask = width == 0    ? 0
                          : width >= 64 ? ~uint64_t{0}
                                        : (uint64_t{1} << width) - 1;
    for (const size_t count : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                               size_t{128}, size_t{130}}) {
      std::vector<uint64_t> values(count);
      for (uint64_t& v : values) v = rng() & mask;
      // Pin every block to exactly `width` bits.
      for (size_t i = 0; width > 0 && i < count; i += 128) {
        values[i] |= uint64_t{1} << (width - 1);
      }
      ExpectRoundTrip(values);
      // One width byte per 128-value block, then the packed bits.
      const size_t blocks = (count + 127) / 128;
      EXPECT_EQ(1 + blocks + (std::min<size_t>(count, 128) * width + 7) / 8 +
                    (count > 128 ? ((count - 128) * width + 7) / 8 : 0),
                Encode(values).size())
          << "width " << width << " count " << count;
    }
  }
}

// --------------------------------------------------------- encoded size ----

TEST(CodecSize, SmallValuesBeatRawSubstantially) {
  // 1000 values < 256: bitpack spends ~1 byte each, raw spends 8.
  std::vector<uint64_t> values(1000);
  std::mt19937_64 rng(11);
  for (uint64_t& v : values) v = rng() % 256;
  EXPECT_EQ(1 + values.size() * 8, EncodeRaw(values).size());
  EXPECT_LE(Encode(values).size(), values.size() * 8 / 4);
}

TEST(CodecSize, ZeroRunsCollapse) {
  // The tag, then one width-0 byte per 128-value block.
  const std::vector<uint64_t> zeros(1024, 0);
  EXPECT_EQ(1 + zeros.size() / 128, Encode(zeros).size());
}

// ---------------------------------------------------------- retired tags ----

TEST(CodecTags, RetiredVarintGBAndEliasFanoTagsAreCorruption) {
  // Tag 1 was VarintGB and tag 3 Elias-Fano. A payload that would have
  // been valid under them (or under any reading) must still be refused.
  for (const uint8_t tag : {uint8_t{1}, uint8_t{3}}) {
    for (const size_t count : {size_t{0}, size_t{1}, size_t{8}}) {
      std::string bytes(1, static_cast<char>(tag));
      bytes += std::string(80, '\0');
      std::vector<uint64_t> out;
      const Status st = Decode(bytes, count, &out);
      EXPECT_EQ(StatusCode::kCorruption, st.code())
          << "tag " << int{tag} << " count " << count;
    }
  }
}

TEST(CodecTags, UnknownTagsRejected) {
  for (int tag = 4; tag < 256; ++tag) {
    std::string bytes(1, static_cast<char>(tag));
    bytes += std::string(64, '\0');
    std::vector<uint64_t> out;
    EXPECT_FALSE(Decode(bytes, 8, &out).ok()) << "tag " << tag;
  }
}

// ----------------------------------------------------------------- fuzz ----

// Shared oracle: decoding must return (not crash, not hang); when it
// succeeds on mutated bytes the result must still have the expected count
// (success-with-wrong-length would desynchronize the enclosing section).
void DecodeMustSurvive(const std::string& bytes, size_t count) {
  std::vector<uint64_t> out;
  if (Decode(bytes, count, &out).ok()) {
    EXPECT_EQ(count, out.size());
  }
}

// One encoding per reader, over the same values.
std::vector<std::string> EncodingsOf(const std::vector<uint64_t>& values) {
  return {Encode(values), EncodeRaw(values)};
}

TEST(CodecFuzz, EveryTruncationPrefixFailsCleanly) {
  std::mt19937_64 rng(20260808);
  std::vector<uint64_t> values(200);
  for (uint64_t& v : values) v = rng() % 100000;
  for (const std::string& bytes : EncodingsOf(values)) {
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint64_t> out;
      // A strict prefix can never satisfy a decoder that consumed the whole
      // encoding: every truncation must be detected.
      EXPECT_FALSE(Decode(bytes.substr(0, cut), values.size(), &out).ok())
          << "tag " << int{static_cast<uint8_t>(bytes[0])} << " accepted a "
          << cut << "-byte prefix of " << bytes.size();
    }
  }
}

TEST(CodecFuzz, SingleByteFlipsNeverCrash) {
  std::mt19937_64 rng(1);
  std::vector<uint64_t> values(150);
  for (uint64_t& v : values) v = rng() % 4096;
  for (const std::string& bytes : EncodingsOf(values)) {
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (const uint8_t flip : {0x01, 0x80, 0xFF}) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
        DecodeMustSurvive(mutated, values.size());
      }
    }
  }
}

TEST(CodecFuzz, SeededGarbageNeverCrashesAnyDecoder) {
  // frame_test.cc's garbage-fuzz idiom over the stream readers: arbitrary
  // bytes behind each accepted tag (and behind an arbitrary first byte),
  // arbitrary requested counts (including adversarially huge ones aimed at
  // size-computation overflow).
  std::mt19937_64 rng(20260808);
  std::string buf;
  for (int round = 0; round < 4000; ++round) {
    buf.resize(1 + rng() % 256);
    for (char& b : buf) b = static_cast<char>(rng());
    const size_t counts[] = {0, 1, rng() % 1000, size_t{1} << 20,
                             ~size_t{0} / 2, ~size_t{0}};
    for (const uint8_t tag :
         {kRawTag, kBitPackTag, static_cast<uint8_t>(buf[0])}) {
      buf[0] = static_cast<char>(tag);
      for (const size_t count : counts) DecodeMustSurvive(buf, count);
    }
  }
}

}  // namespace
}  // namespace codec
}  // namespace storage
}  // namespace slpspan
