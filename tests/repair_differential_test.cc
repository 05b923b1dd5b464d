// Differential test: the incremental RePair (slp/repair.h) against the
// round-recount reference (repair_reference.h). Both must emit the same
// grammar rule for rule — same rule list, same root, same serialized bytes —
// on fixed, random, run-heavy, full-byte-range and generated inputs.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "repair_reference.h"
#include "slp/repair.h"
#include "slp/serialize.h"
#include "test_util.h"
#include "textgen/textgen.h"
#include "util/rng.h"

namespace slpspan {
namespace {

using testing_util::kFixedInputs;
using testing_util::ReferenceRePairCompress;

std::vector<std::pair<uint32_t, NtId>> Rules(const Slp& slp) {
  std::vector<std::pair<uint32_t, NtId>> rules;
  for (NtId a = 0; a < slp.NumNonTerminals(); ++a) {
    if (slp.IsLeaf(a)) {
      rules.emplace_back(slp.LeafSymbol(a), kInvalidNt);
    } else {
      rules.emplace_back(slp.Left(a), slp.Right(a));
    }
  }
  return rules;
}

std::string SavedBytes(const Slp& slp) {
  const std::string path = ::testing::TempDir() + "repair_differential.slp";
  EXPECT_TRUE(SaveSlpToFile(slp, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

void ExpectSame(const Slp& fast, const Slp& ref, const std::string& label) {
  EXPECT_EQ(fast.root(), ref.root()) << label;
  EXPECT_EQ(Rules(fast), Rules(ref)) << label;
  EXPECT_EQ(SavedBytes(fast), SavedBytes(ref)) << label;
}

void ExpectSameGrammar(const std::vector<SymbolId>& text, const std::string& label) {
  ExpectSame(RePairCompress(text), ReferenceRePairCompress(text), label);
}

// Both overloads: bytes and the same text as symbol ids.
void ExpectSameGrammar(const std::string& text, const std::string& label) {
  const Slp ref = ReferenceRePairCompress(text);
  ExpectSame(RePairCompress(text), ref, label);
  ExpectSame(RePairCompress(ToSymbols(text)), ref, label + " (as symbol ids)");
  EXPECT_EQ(ref.ExpandToString(), text) << label;
}

std::string Repeat(const std::string& block, size_t times) {
  std::string out;
  for (size_t i = 0; i < times; ++i) out += block;
  return out;
}

TEST(RePairDifferential, FixedInputs) {
  for (const std::string text : kFixedInputs) ExpectSameGrammar(text, text);
}

class RePairDifferentialRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RePairDifferentialRandom, RandomStrings) {
  Rng rng(GetParam() * 7919 + 1);
  const uint64_t len = 1 + rng.Below(4000);
  const uint32_t sigma = 1 + static_cast<uint32_t>(rng.Below(8));
  std::string text;
  for (uint64_t i = 0; i < len; ++i) {
    text += static_cast<char>('a' + rng.Below(sigma));
  }
  ExpectSameGrammar(text, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RePairDifferentialRandom,
                         ::testing::Range<uint64_t>(0, 200));

TEST(RePairDifferential, SingleSymbolRuns) {
  for (size_t n = 1; n <= 80; ++n) ExpectSameGrammar(std::string(n, 'a'), "a^n");
  for (const size_t n : {127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025,
                         4095, 4096, 4097, 4999, 5000}) {
    ExpectSameGrammar(std::string(n, 'a'), "a^" + std::to_string(n));
  }
}

TEST(RePairDifferential, AlternatingRuns) {
  for (const size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1000, 2500}) {
    ExpectSameGrammar(Repeat("ab", n), "(ab)^" + std::to_string(n));
    ExpectSameGrammar(Repeat("ab", n) + "a", "(ab)^n a");
    ExpectSameGrammar(Repeat("aab", n), "(aab)^" + std::to_string(n));
    ExpectSameGrammar(Repeat("abb", n), "(abb)^" + std::to_string(n));
    ExpectSameGrammar(Repeat("aabb", n), "(aabb)^" + std::to_string(n));
  }
}

TEST(RePairDifferential, RunsAroundASeparator) {
  for (const size_t k : {1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 100, 1001}) {
    const std::string run(k, 'a');
    ExpectSameGrammar(run + "b" + run, "a^k b a^k, k=" + std::to_string(k));
    ExpectSameGrammar(Repeat(run + "b", 9), "(a^k b)^9, k=" + std::to_string(k));
    ExpectSameGrammar(Repeat("b" + run + "c", 9), "(b a^k c)^9, k=" + std::to_string(k));
    ExpectSameGrammar(run + "b" + std::string(k + 1, 'a') + "b" + run,
                      "mixed run lengths, k=" + std::to_string(k));
  }
}

TEST(RePairDifferential, AllByteValues) {
  std::string bytes;
  for (int c = 0; c < 256; ++c) bytes += static_cast<char>(c);
  ExpectSameGrammar(bytes, "all 256 bytes");
  ExpectSameGrammar(Repeat(bytes, 3), "all 256 bytes, 3 times");
  std::string descending(bytes.rbegin(), bytes.rend());
  ExpectSameGrammar(bytes + descending + bytes, "up, down, up");
}

TEST(RePairDifferential, WideSymbolIds) {
  // Terminals near the top of the 32-bit range still order below every
  // non-terminal.
  Rng rng(99);
  std::vector<SymbolId> text;
  for (int i = 0; i < 3000; ++i) {
    text.push_back(0xFFFFFFFFu - static_cast<SymbolId>(rng.Below(5)));
  }
  ExpectSameGrammar(text, "wide symbols");
  // Hundreds of distinct ids around the bound of the byte-sized tables.
  for (const SymbolId top : {511u, 512u, 700u}) {
    text.clear();
    for (int i = 0; i < 3000; ++i) {
      text.push_back(static_cast<SymbolId>(rng.Below(8) == 0 ? rng.Below(top + 1) : top));
    }
    ExpectSameGrammar(text, "ids up to " + std::to_string(top));
  }
}

TEST(RePairDifferential, GeneratedDocuments) {
  for (const size_t size : {2048, 4096, 8192, 16384}) {
    const std::string log = GenerateLog({.lines = size / 20, .seed = size});
    ExpectSameGrammar(log.substr(0, size), "log " + std::to_string(size));
    const std::string dna = GenerateDna({.length = size, .seed = size + 1});
    ExpectSameGrammar(dna, "dna " + std::to_string(size));
    const std::string versioned = GenerateVersionedDoc(
        {.base_length = size / 8, .versions = 8, .seed = size + 2});
    ExpectSameGrammar(versioned.substr(0, size), "versioned " + std::to_string(size));
  }
}

}  // namespace
}  // namespace slpspan
