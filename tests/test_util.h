// Shared fixtures and helpers for the slpspan test suite.

#ifndef SLPSPAN_TESTS_TEST_UTIL_H_
#define SLPSPAN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/kernels/kernels.h"
#include "gtest/gtest.h"
#include "slp/balance.h"
#include "slp/factory.h"
#include "slp/lz78.h"
#include "slp/repair.h"
#include "slp/slp.h"
#include "spanner/ref_eval.h"
#include "spanner/spanner.h"

namespace slpspan {
namespace testing_util {

/// Small fixed documents for the compressor tests: single symbols, runs,
/// periodic and natural-language strings.
inline constexpr const char* kFixedInputs[] = {
    "a",
    "ab",
    "aaaa",
    "abab",
    "mississippi",
    "abracadabra abracadabra",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    "to be or not to be that is the question",
    "xyzzyxyzzyxyzzyxyzzyxyzzyxyzzyxyzzyxyzzy",
};

/// The paper's Figure 2 DFA over Sigma = {a,b,c}, X = {x, y}:
///   Sigma* <x (a|b)+ >x Sigma*  ∪  Sigma* <y c+ >y Sigma*.
/// States 0..5 correspond to the paper's 1..6 (0 start, 5 accepting).
inline Spanner MakeFigure2Spanner() {
  VariableSet vars;
  const VarId x = vars.Intern("x").value();
  const VarId y = vars.Intern("y").value();
  Nfa nfa;  // state 0 exists
  for (int s = 1; s <= 5; ++s) nfa.AddState();
  for (SymbolId c : {'a', 'b', 'c'}) {
    nfa.AddCharArc(0, c, 0);
    nfa.AddCharArc(5, c, 5);
  }
  nfa.AddMarkArc(0, OpenMarker(x), 1);
  nfa.AddCharArc(1, 'a', 2);
  nfa.AddCharArc(1, 'b', 2);
  nfa.AddCharArc(2, 'a', 2);
  nfa.AddCharArc(2, 'b', 2);
  nfa.AddMarkArc(2, CloseMarker(x), 5);
  nfa.AddMarkArc(0, OpenMarker(y), 3);
  nfa.AddCharArc(3, 'c', 4);
  nfa.AddCharArc(4, 'c', 4);
  nfa.AddMarkArc(4, CloseMarker(y), 5);
  nfa.SetAccepting(5);
  Result<Spanner> sp = Spanner::FromAutomaton(std::move(nfa), std::move(vars));
  SLPSPAN_CHECK(sp.ok());
  return std::move(sp).value();
}

/// The paper's introduction spanner (b|c)* <x a >x Sigma* <y c+ >y Sigma*.
inline Spanner MakeIntroSpanner() {
  Result<Spanner> sp = Spanner::Compile("(b|c)*x{a}.*y{cc*}.*", "abc");
  SLPSPAN_CHECK(sp.ok());
  return std::move(sp).value();
}

/// The paper's Example 4.2 SLP for "aabccaabaa" (the Figure 3 grammar).
inline Slp MakeExample42Slp() {
  CnfAssembler a;
  const NtId ta = a.Leaf('a'), tb = a.Leaf('b'), tc = a.Leaf('c');
  const NtId e = a.Pair(ta, ta);
  const NtId c = a.Pair(e, tb);
  const NtId d = a.Pair(tc, tc);
  const NtId aa = a.Pair(c, d);
  const NtId b = a.Pair(c, e);
  return a.Finish(a.Pair(aa, b));
}

/// RAII kernel override for differential tests: switches the active
/// BoolMatrix kernel in-process and restores the previous one on scope
/// exit, so a failing test cannot leak its override into later tests.
class KernelGuard {
 public:
  explicit KernelGuard(const char* name)
      : previous_(kernels::ActiveKernel().name),
        ok_(kernels::SetActiveKernelForTesting(name)) {}
  ~KernelGuard() { kernels::SetActiveKernelForTesting(previous_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

  /// False when the requested kernel is unavailable on this host (the
  /// active kernel is unchanged); callers should GTEST_SKIP.
  bool ok() const { return ok_; }

 private:
  const char* previous_;
  bool ok_;
};

/// Kernel names available on this host ("scalar" always; "avx2" when the
/// build and CPU support it) — the axis for differential kernel tests.
inline std::vector<const char*> AvailableKernels() {
  std::vector<const char*> names = {"scalar"};
  if (kernels::Avx2Kernel() != nullptr) names.push_back("avx2");
  return names;
}

/// Span-tuple literal: Tup({{1,3}, std::nullopt}) etc.
inline SpanTuple Tup(std::vector<std::optional<Span>> spans) {
  SpanTuple t(static_cast<uint32_t>(spans.size()));
  for (VarId v = 0; v < spans.size(); ++v) {
    if (spans[v].has_value()) t.Set(v, *spans[v]);
  }
  return t;
}

inline std::vector<SpanTuple> Sorted(std::vector<SpanTuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

/// Asserts both sides contain exactly the same set of tuples.
inline void ExpectSameTupleSet(std::vector<SpanTuple> expected,
                               std::vector<SpanTuple> actual) {
  expected = Sorted(std::move(expected));
  actual = Sorted(std::move(actual));
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(expected[i] == actual[i]) << "tuple #" << i << " differs";
  }
}

/// Named SLP constructions for cross-compressor parameterized tests.
enum class SlpKind { kBalanced, kBalancedNoDedup, kChain, kRePair, kLz78, kRebalancedLz78 };

inline const char* SlpKindName(SlpKind k) {
  switch (k) {
    case SlpKind::kBalanced: return "balanced";
    case SlpKind::kBalancedNoDedup: return "balanced_nodedup";
    case SlpKind::kChain: return "chain";
    case SlpKind::kRePair: return "repair";
    case SlpKind::kLz78: return "lz78";
    case SlpKind::kRebalancedLz78: return "rebalanced_lz78";
  }
  return "?";
}

inline Slp MakeSlp(SlpKind kind, const std::string& text) {
  switch (kind) {
    case SlpKind::kBalanced: return SlpFromString(text).value();
    case SlpKind::kBalancedNoDedup: return SlpFromString(text, /*dedup=*/false).value();
    case SlpKind::kChain: return SlpChainFromString(text).value();
    case SlpKind::kRePair: return RePairCompress(text);
    case SlpKind::kLz78: return Lz78Compress(text);
    case SlpKind::kRebalancedLz78: return Rebalance(Lz78Compress(text));
  }
  SLPSPAN_CHECK(false);
  return SlpFromString(text).value();
}

inline std::vector<SlpKind> AllSlpKinds() {
  return {SlpKind::kBalanced, SlpKind::kBalancedNoDedup, SlpKind::kChain,
          SlpKind::kRePair,   SlpKind::kLz78,            SlpKind::kRebalancedLz78};
}

}  // namespace testing_util
}  // namespace slpspan

#endif  // SLPSPAN_TESTS_TEST_UTIL_H_
