// Tests for the SLP construction front-ends: RePair (slp/repair.h) and
// LZ78 (slp/lz78.h). Lossless round-trips on fixed, generated and random
// inputs; compression-quality sanity on repetitive documents.

#include <string>

#include "gtest/gtest.h"
#include "slp/lz78.h"
#include "slp/repair.h"
#include "test_util.h"
#include "textgen/textgen.h"
#include "util/rng.h"

namespace slpspan {
namespace {

using testing_util::kFixedInputs;

TEST(RePair, RoundTripFixedInputs) {
  for (const std::string text : kFixedInputs) {
    const Slp slp = RePairCompress(text);
    EXPECT_EQ(slp.ExpandToString(), text) << text;
    EXPECT_TRUE(slp.Validate().ok());
  }
}

TEST(Lz78, RoundTripFixedInputs) {
  for (const std::string text : kFixedInputs) {
    const Slp slp = Lz78Compress(text);
    EXPECT_EQ(slp.ExpandToString(), text) << text;
    EXPECT_TRUE(slp.Validate().ok());
  }
}

class CompressRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressRandomTest, RePairRoundTripsRandomStrings) {
  Rng rng(GetParam());
  const uint64_t len = 1 + rng.Below(2000);
  const uint32_t sigma = 1 + rng.Below(8);
  std::string text;
  for (uint64_t i = 0; i < len; ++i) {
    text += static_cast<char>('a' + rng.Below(sigma));
  }
  EXPECT_EQ(RePairCompress(text).ExpandToString(), text);
}

TEST_P(CompressRandomTest, Lz78RoundTripsRandomStrings) {
  Rng rng(GetParam() * 977 + 3);
  const uint64_t len = 1 + rng.Below(5000);
  const uint32_t sigma = 1 + rng.Below(8);
  std::string text;
  for (uint64_t i = 0; i < len; ++i) {
    text += static_cast<char>('a' + rng.Below(sigma));
  }
  EXPECT_EQ(Lz78Compress(text).ExpandToString(), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressRandomTest, ::testing::Range<uint64_t>(0, 25));

TEST(RePair, CompressesRepetitiveInput) {
  const std::string text = GenerateRepeated("the quick brown fox ", 200);
  const Slp slp = RePairCompress(text);
  EXPECT_EQ(slp.ExpandToString(), text);
  // 4000 characters, heavily repetitive: grammar must be far smaller.
  EXPECT_LT(slp.PaperSize(), text.size() / 10);
}

TEST(RePair, CompressesGeneratedLog) {
  const std::string log = GenerateLog({.lines = 300, .seed = 5});
  const Slp slp = RePairCompress(log);
  EXPECT_EQ(slp.ExpandToString(), log);
  EXPECT_LT(slp.PaperSize(), log.size() / 2);
}

TEST(RePair, InputLimitIsAStatus) {
  EXPECT_TRUE(CheckRePairInput(1).ok());
  EXPECT_TRUE(CheckRePairInput(kRePairMaxSymbols).ok());
  const Status over = CheckRePairInput(kRePairMaxSymbols + 1);
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.message().find("RePair"), std::string::npos);
}

TEST(Lz78, PhraseCountMatchesTheory) {
  // a^n has Theta(sqrt(n)) LZ78 phrases.
  const std::string text(10000, 'a');
  const uint64_t phrases = Lz78PhraseCount(ToSymbols(text));
  EXPECT_GE(phrases, 100u);
  EXPECT_LE(phrases, 200u);
}

TEST(Lz78, RoundTripsVersionedDocument) {
  const std::string doc = GenerateVersionedDoc({.base_length = 2000, .versions = 40});
  const Slp slp = Lz78Compress(doc);
  EXPECT_EQ(slp.ExpandToString(), doc);
  // The grammar costs ~3 rules per phrase, so on moderate inputs it only
  // tracks the O(n / log n) phrase bound — check that, not miracles.
  EXPECT_LT(Lz78PhraseCount(ToSymbols(doc)), doc.size() / 4);
}

TEST(Lz78, CompressesPeriodicDocument) {
  // Periodic strings have Theta(sqrt(n * p)) LZ78 phrases: strong ratio.
  const std::string doc = GenerateRepeated("abcdefgh", 5000);  // n = 40000
  const Slp slp = Lz78Compress(doc);
  EXPECT_EQ(slp.ExpandToString(), doc);
  EXPECT_LT(slp.PaperSize(), doc.size() / 8);
}

TEST(Lz78, HandlesBinaryBytes) {
  std::string text;
  for (int i = 0; i < 512; ++i) text += static_cast<char>(i % 251);
  EXPECT_EQ(Lz78Compress(text).ExpandToString(), text);
  EXPECT_EQ(RePairCompress(text).ExpandToString(), text);
}

}  // namespace
}  // namespace slpspan
