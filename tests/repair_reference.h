// Reference RePair for differential tests: the round-recount algorithm.
//
// Each round recounts every digram of the current sequence in a fresh hash
// map, picks the highest count (ties: smallest (first, second) working
// symbol pair), and rewrites the whole sequence. O(n · rounds) — slow, but
// each rule of RePair (count, choice, replacement, assembler call order) is
// spelled out directly. slp/repair.cc must produce the identical grammar.

#ifndef SLPSPAN_TESTS_REPAIR_REFERENCE_H_
#define SLPSPAN_TESTS_REPAIR_REFERENCE_H_

#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "slp/slp.h"

namespace slpspan {
namespace testing_util {

namespace repair_reference_internal {

// Working symbols: terminals are tagged with the high bit clear, grammar
// non-terminals (assembler ids) with the high bit set.
constexpr uint64_t kNtTag = 1ull << 63;

struct PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    uint64_t v = p.first * 0x9e3779b97f4a7c15ULL ^ (p.second + 0x7f4a7c15u);
    v ^= v >> 29;
    v *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(v ^ (v >> 32));
  }
};

}  // namespace repair_reference_internal

inline Slp ReferenceRePairCompress(const std::vector<SymbolId>& text) {
  using repair_reference_internal::kNtTag;
  using repair_reference_internal::PairHash;
  SLPSPAN_CHECK(!text.empty());
  CnfAssembler a;

  std::vector<uint64_t> seq;
  seq.reserve(text.size());
  for (SymbolId s : text) seq.push_back(s);

  auto to_nt = [&](uint64_t work_sym) -> NtId {
    if (work_sym & kNtTag) return static_cast<NtId>(work_sym & ~kNtTag);
    return a.Leaf(static_cast<SymbolId>(work_sym));
  };

  using WorkPair = std::pair<uint64_t, uint64_t>;
  while (seq.size() >= 2) {
    // Count adjacent pairs; occurrences of xx inside a run x^k are counted
    // non-overlapping (floor(k/2) times), matching what replacement can do.
    std::unordered_map<WorkPair, uint64_t, PairHash> freq;
    freq.reserve(seq.size());
    for (size_t i = 0; i + 1 < seq.size();) {
      WorkPair p{seq[i], seq[i + 1]};
      ++freq[p];
      if (p.first == p.second && i + 2 < seq.size() && seq[i + 2] == p.first) {
        i += 2;
      } else {
        i += 1;
      }
    }

    WorkPair best{};
    uint64_t best_count = 1;
    for (const auto& [p, c] : freq) {
      if (c > best_count || (c == best_count && c > 1 && p < best)) {
        best = p;
        best_count = c;
      }
    }
    if (best_count < 2) break;

    // Replace every non-overlapping occurrence left-to-right.
    const NtId fresh = a.Pair(to_nt(best.first), to_nt(best.second));
    const uint64_t fresh_sym = kNtTag | fresh;
    std::vector<uint64_t> next;
    next.reserve(seq.size());
    for (size_t i = 0; i < seq.size();) {
      if (i + 1 < seq.size() && seq[i] == best.first && seq[i + 1] == best.second) {
        next.push_back(fresh_sym);
        i += 2;
      } else {
        next.push_back(seq[i]);
        ++i;
      }
    }
    seq.swap(next);
  }

  std::vector<NtId> parts;
  parts.reserve(seq.size());
  for (uint64_t s : seq) parts.push_back(to_nt(s));
  return a.Finish(a.Balanced(parts));
}

inline Slp ReferenceRePairCompress(std::string_view text) {
  return ReferenceRePairCompress(ToSymbols(text));
}

}  // namespace testing_util
}  // namespace slpspan

#endif  // SLPSPAN_TESTS_REPAIR_REFERENCE_H_
