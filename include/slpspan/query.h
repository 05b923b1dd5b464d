// Query — a compiled spanner, built once and reused everywhere.
//
// Compiling a spanner regex is the query-side half of the paper's
// preprocessing: the pattern is parsed, Thompson-constructed, normalized
// (eps-free, merged marker sets), and the three automaton views the tasks
// need are derived and cached (non-emptiness projection for Theorem 5.1(1),
// sentinel-extended automaton for Theorem 5.1(2), determinized evaluation
// automaton for Theorems 7.1/8.10). None of that depends on any document, so
// a Query is:
//   * immutable and cheap to copy (shared handle),
//   * reusable across any number of Documents,
//   * safe for concurrent use from multiple threads.
//
// Errors (syntax errors, >32 variables, state blow-up past the 16-bit
// budget) surface as Result<Query>; compilation never aborts the process.

#ifndef SLPSPAN_PUBLIC_QUERY_H_
#define SLPSPAN_PUBLIC_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "slpspan/status.h"
#include "slpspan/types.h"
#include "spanner/nfa.h"

namespace slpspan {

class Spanner;

namespace api_internal {
struct QueryState;
}  // namespace api_internal

struct QueryOptions {
  /// Determinize the evaluation automaton. Required for duplicate-free
  /// enumeration (Theorem 8.10) and for Count/Sample/At; with `false`,
  /// Extract may emit duplicate tuples (the paper's NFA remark).
  bool determinize = true;

  /// Rebalance documents during preparation (Theorem 4.3 stand-in),
  /// guaranteeing O(log d * |X|) enumeration delay regardless of the input
  /// SLP's shape.
  bool rebalance = false;
};

/// Compiled spanner handle. Copies share one immutable compiled state.
class Query {
 public:
  /// Compiles a spanner regex (spanner/regex_parser.h dialect) over the
  /// distinct bytes of `alphabet`. Fails with kParseError on bad syntax,
  /// kResourceExhausted when determinization passes its 2^20-state cap and
  /// kNotSupported when the query exceeds the implementation envelope.
  static Result<Query> Compile(std::string_view pattern,
                               std::string_view alphabet,
                               QueryOptions opts = {});

  /// Wraps a hand-built automaton over Sigma ∪ P(Gamma_X); `raw` may use eps
  /// arcs and un-merged marker arcs (normalized internally).
  static Result<Query> FromAutomaton(Nfa raw, VariableSet vars,
                                     QueryOptions opts = {});

  /// The source pattern ("" for FromAutomaton queries).
  const std::string& pattern() const;

  const VariableSet& vars() const;
  uint32_t num_vars() const;

  /// q — states of the (possibly determinized) evaluation automaton; the q³
  /// factor of every per-document complexity bound.
  uint32_t num_states() const;

  const QueryOptions& options() const;

  /// Process-unique identity of the compiled state; Documents key their
  /// prepared-state cache on it. Copies of one Query share an id, separately
  /// compiled Queries never do.
  uint64_t id() const;

  /// Content fingerprint of the compiled evaluation automaton and options
  /// (never 0). Unlike id(), identical patterns compiled with identical
  /// options — even across processes — fingerprint identically; it keys the
  /// disk spill tier and exported bundles.
  uint64_t fingerprint() const;

 private:
  friend class Document;
  friend class Engine;
  friend class Corpus;

  static Result<Query> Wrap(Spanner spanner, QueryOptions opts);

  explicit Query(std::shared_ptr<const api_internal::QueryState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const api_internal::QueryState> state_;
};

}  // namespace slpspan

#endif  // SLPSPAN_PUBLIC_QUERY_H_
