// RePair grammar compression (Larsson & Moffat, DCC 1999).
//
// Repeatedly replaces a most frequent adjacent symbol pair by a fresh
// non-terminal until no pair occurs twice, then packs the remaining sequence
// with a balanced binary tree.
//
// The pair rule is exact and deterministic:
//   * count(a, b) is the number of adjacent occurrences; for a == b it is
//     the sum of floor(k/2) over the maximal runs a^k;
//   * the pair with the highest count wins; ties go to the smallest
//     (first, second), where terminals order below non-terminals and
//     non-terminals by creation order;
//   * occurrences are replaced left to right without overlap (this only
//     matters inside runs).
//
// Pair counts, per-pair occurrence lists and a lazily invalidated max-heap
// are maintained across rounds: a replacement only updates the pairs next to
// the occurrences it rewrites, and no round rescans the sequence. Time is
// O(n log n) for n input symbols, space O(n) (8 bytes per position plus up
// to 12 bytes of list entries); inputs are limited to kRePairMaxSymbols.

#ifndef SLPSPAN_SLP_REPAIR_H_
#define SLPSPAN_SLP_REPAIR_H_

#include <string_view>
#include <vector>

#include "slp/slp.h"
#include "util/status.h"

namespace slpspan {

/// The longest input RePairCompress accepts, in symbols (512 Mi).
inline constexpr size_t kRePairMaxSymbols = size_t{1} << 29;

/// OK when RePairCompress accepts an input of `symbols` symbols, else
/// kInvalidArgument. Callers on user-input paths check before compressing.
Status CheckRePairInput(size_t symbols);

/// Compresses a non-empty symbol sequence of at most kRePairMaxSymbols
/// symbols into a normal-form SLP.
Slp RePairCompress(const std::vector<SymbolId>& text);

/// Convenience overload for byte strings.
Slp RePairCompress(std::string_view text);

}  // namespace slpspan

#endif  // SLPSPAN_SLP_REPAIR_H_
