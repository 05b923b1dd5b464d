// RePair compression: repeatedly replaces the most frequent digram with a
// fresh non-terminal until no digram repeats. Digram counts, occurrence
// lists and the priority order are maintained incrementally across rounds
// (Larsson & Moffat), so a round only touches the neighbours of the
// occurrences it replaces.
#include "slp/repair.h"

#include <algorithm>
#include <limits>
#include <ranges>
#include <string>
#include <unordered_map>
#include <utility>

namespace slpspan {

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
// Tags a hole's symbol field (see DigramIndex). Working symbols stay below
// it: there are t <= n terminals and at most t leaves plus n/2 pairs, so
// they are < 2.5 * kRePairMaxSymbols < 2^31.
constexpr uint32_t kHoleBit = 1u << 31;
static_assert(kRePairMaxSymbols * 5 / 2 < kHoleBit);
// Inputs whose symbol values are all below this (bytes) are ranked and
// their digrams indexed through direct tables, others through a sorted
// alphabet and a hash map.
constexpr SymbolId kDirectSymbols = 512;

// Input symbols: byte strings are read as unsigned bytes (as ToSymbols does).
SymbolId SymbolOf(SymbolId s) { return s; }
SymbolId SymbolOf(char c) { return static_cast<unsigned char>(c); }

// A digram of working symbols packed as (first << 32 | second); comparing
// keys compares pairs lexicographically.
uint64_t Key(uint32_t first, uint32_t second) {
  return static_cast<uint64_t>(first) << 32 | second;
}

// The working sequence with its digram index.
//
// Working symbols are dense ids whose integer order is the tie-break order:
// the distinct terminals get 0..t-1 in value order, and the non-terminal
// with assembler id A gets t + A (so terminals sort below non-terminals, and
// non-terminals by assembler id).
//
// A position is 8 bytes, its symbol and its record. Replacing the
// occurrence at (i, next(i)) writes the new symbol to i and turns next(i)
// into a hole. Holes reuse both fields as links past the stretch of holes
// they lie in: the stretch's first hole holds kHoleBit | (the next live
// position) and its last one holds the previous live position in `rec`, so
// next and prev are O(1). Any other hole keeps the forward link it was
// given, to a later position that was live then. Once holes fill half the
// array, Compact() squeezes them out.
//
// A live position p with live successor q belongs to the digram record `rec`
//   * of (sym[p], sym[q]) when the two differ;
//   * of (a, a) when p starts a maximal run a^k, k >= 2 — that record's
//     count is the sum of floor(k/2) over its runs, the number of
//     non-overlapping occurrences a left-to-right replacement can take;
//   * of none otherwise (p inside a run).
//
// Each record's occurrence list is a contiguous span of `occ_`, laid out
// when the record is made: all digrams a round creates involve its new
// symbol, so they are all indexed in that round. Later changes only remove
// occurrences, and they do so lazily: the position's `rec` is reset and its
// span entry goes stale, to be skipped when the list is replayed. The one
// exception is a run whose first position is consumed: its start moves one
// position right, and the entry still names the old start, now a hole whose
// forward links lead to the new one.
class DigramIndex {
 public:
  template <typename Text>  // std::vector<SymbolId> or std::string_view
  explicit DigramIndex(const Text& text) : n_(static_cast<uint32_t>(text.size())) {
    // Contract: user-input paths call CheckRePairInput first.
    SLPSPAN_CHECK(text.size() <= kRePairMaxSymbols);  // repo-lint: allow(check-in-library)
    SymbolId max_sym = 0;
    for (const auto c : text) max_sym = std::max(max_sym, SymbolOf(c));
    const bool direct = max_sym < kDirectSymbols;
    std::vector<uint32_t> rank;
    if (direct) {
      rank.assign(max_sym + 1, kNone);
      for (const auto c : text) rank[SymbolOf(c)] = 0;
      for (SymbolId s = 0; s <= max_sym; ++s) {
        if (rank[s] == kNone) continue;
        rank[s] = static_cast<uint32_t>(terminals_.size());
        terminals_.push_back(s);
      }
    } else {
      for (const auto c : text) terminals_.push_back(SymbolOf(c));
      std::sort(terminals_.begin(), terminals_.end());
      terminals_.erase(std::unique(terminals_.begin(), terminals_.end()), terminals_.end());
    }
    slots_.resize(n_);
    for (uint32_t p = 0; p < n_; ++p) {
      const SymbolId s = SymbolOf(text[p]);
      slots_[p].sym = direct ? rank[s]
                             : static_cast<uint32_t>(
                                   std::lower_bound(terminals_.begin(), terminals_.end(), s) -
                                   terminals_.begin());
    }

    // Lists never outgrow the input plus two entries per replacement.
    occ_.reserve(3 * static_cast<size_t>(n_));
    const uint64_t t = terminals_.size();
    std::vector<uint32_t> pair_table(direct ? t * t : 0, kNone);
    std::unordered_map<uint64_t, uint32_t> pair_map;
    const auto record = [&](uint32_t a, uint32_t b) {
      uint32_t& r = direct ? pair_table[a * t + b]
                           : pair_map.try_emplace(Key(a, b), kNone).first->second;
      if (r == kNone) r = NewRecord(Key(a, b));
      return r;
    };
    for (uint32_t p = 0; p + 1 < n_;) {
      const uint32_t a = slots_[p].sym;
      if (slots_[p + 1].sym != a) {
        Index(p, record(a, slots_[p + 1].sym), 1);
        ++p;
        continue;
      }
      uint32_t end = p + 1;
      while (end + 1 < n_ && slots_[end + 1].sym == a) ++end;
      Index(p, record(a, a), (end - p + 1) / 2);
      p = end;  // the run's last position pairs with a different symbol
    }
    LayOutLists(0, std::views::iota(0u, n_));
    for (uint32_t r = 0; r < recs_.size(); ++r) Push(r);
  }

  uint32_t NumTerminals() const { return static_cast<uint32_t>(terminals_.size()); }

  // The terminal with working symbol `sym` < NumTerminals().
  SymbolId Terminal(uint32_t sym) const { return terminals_[sym]; }

  // Pops the digram to replace next: the highest count, ties broken by the
  // smallest (first, second). Returns false once no digram occurs twice.
  bool PopMostFrequent(std::pair<uint32_t, uint32_t>* best) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const HeapEntry top = heap_.back();
      heap_.pop_back();
      // Counts of existing digrams only ever drop, so an entry whose count
      // is stale is re-queued at the current count.
      if (top.count != recs_[top.rec].count) {
        Push(top.rec);
        continue;
      }
      current_ = top.rec;
      *best = {static_cast<uint32_t>(top.key >> 32), static_cast<uint32_t>(top.key)};
      return true;
    }
    return false;
  }

  // Replaces every occurrence of the digram last returned by
  // PopMostFrequent by `fresh`, left to right and non-overlapping, then
  // indexes the digrams the new symbol forms with its neighbours.
  void ReplaceAll(uint32_t fresh) {
    SLPSPAN_DCHECK(fresh < kHoleBit);  // repo-lint: allow(check-in-library)
    const uint32_t r = current_;
    const PairRecord rec = recs_[r];
    const bool run = rec.key >> 32 == (rec.key & 0xffffffffu);
    first_new_ = static_cast<uint32_t>(recs_.size());
    if (left_rec_.size() <= fresh) {
      left_rec_.resize(2 * static_cast<size_t>(fresh) + 1, kNone);
      right_rec_.resize(2 * static_cast<size_t>(fresh) + 1, kNone);
    }
    for (uint32_t e = rec.begin; e < rec.end; ++e) {
      uint32_t p = occ_[e];
      if (run) {
        while (p != kNone && IsHole(p)) p = Forward(p);
        if (p == kNone) continue;
      }
      if (IsHole(p) || slots_[p].rec != r) continue;  // stale entry
      if (run) {
        ReplaceRun(p, fresh);
      } else {
        ReplaceOccurrence(p, fresh);
      }
    }
    CloseBlock(fresh);
    recs_[r].count = 0;
    LayOutLists(first_new_, linked_);
    linked_.clear();
    for (uint32_t s = first_new_; s < recs_.size(); ++s) Push(s);
    if (2 * holes_ > n_) Compact();
  }

  // The remaining sequence, left to right (position 0 is never a hole).
  std::vector<uint32_t> Sequence() const {
    std::vector<uint32_t> seq;
    for (uint32_t p = 0; p != kNone; p = Next(p)) seq.push_back(slots_[p].sym);
    return seq;
  }

 private:
  struct Slot {
    uint32_t sym;
    uint32_t rec = kNone;
  };
  struct PairRecord {
    uint64_t key;
    uint32_t count;
    uint32_t begin;  // occurrence list occ_[begin, end)
    uint32_t end;
  };
  struct HeapEntry {
    uint32_t count;
    uint32_t rec;
    uint64_t key;
    // Max-heap order: higher count first, then the smaller pair.
    bool operator<(const HeapEntry& o) const {
      return count != o.count ? count < o.count : key > o.key;
    }
  };

  bool IsHole(uint32_t p) const { return slots_[p].sym & kHoleBit; }

  // The position the hole at p links forward to, kNone past the end.
  uint32_t Forward(uint32_t p) const {
    const uint32_t q = slots_[p].sym & ~kHoleBit;
    return q == n_ ? kNone : q;
  }

  // The live positions around the live position p, kNone past either end.
  uint32_t Next(uint32_t p) const {
    if (p + 1 == n_) return kNone;
    return IsHole(p + 1) ? Forward(p + 1) : p + 1;
  }
  uint32_t Prev(uint32_t p) const {
    if (p == 0) return kNone;
    return IsHole(p - 1) ? slots_[p - 1].rec : p - 1;
  }

  uint32_t NewRecord(uint64_t key) {
    recs_.push_back({key, 0, 0, 0});
    return static_cast<uint32_t>(recs_.size() - 1);
  }

  void Push(uint32_t r) {
    if (recs_[r].count < 2) return;
    heap_.push_back({recs_[r].count, r, recs_[r].key});
    std::push_heap(heap_.begin(), heap_.end());
  }

  // Adds p, with `count` occurrences, to record r made this round. `end`
  // counts the entries until LayOutLists.
  void Index(uint32_t p, uint32_t r, uint32_t count) {
    slots_[p].rec = r;
    recs_[r].count += count;
    ++recs_[r].end;
  }

  // Index, and queue p for this round's layout.
  void Link(uint32_t p, uint32_t r, uint32_t count) {
    Index(p, r, count);
    linked_.push_back(p);
  }

  // Gives the records from `first` on spans of occ_ sized by their `end`
  // counts and fills them with the positions indexed to them, taken from
  // `positions` in position order. A digram that does not repeat gets no
  // list: it is never replaced.
  template <typename Positions>
  void LayOutLists(uint32_t first, const Positions& positions) {
    uint32_t offset = static_cast<uint32_t>(occ_.size());
    for (uint32_t r = first; r < recs_.size(); ++r) {
      const uint32_t entries = recs_[r].count >= 2 ? recs_[r].end : 0;
      recs_[r].begin = recs_[r].end = offset;
      offset += entries;
    }
    occ_.resize(offset);
    for (const uint32_t p : positions) {
      const uint32_t r = slots_[p].rec;
      if (r != kNone && recs_[r].count >= 2) occ_[recs_[r].end++] = p;
    }
  }

  // Drops the holes, renumbering the live positions 0..live-1, and rebuilds
  // the lists of the digrams that still repeat from the sequence, which
  // drops their stale entries. Run once holes fill half the array, it costs
  // O(n) over the whole run and keeps later rounds on a smaller array in
  // which neighbours are adjacent.
  void Compact() {
    uint32_t live = 0;
    for (uint32_t p = 0; p < n_; ++p) {
      if (!IsHole(p)) slots_[live++] = slots_[p];
    }
    n_ = live;
    holes_ = 0;
    slots_.resize(n_);
    for (PairRecord& rec : recs_) rec.end = 0;
    for (const Slot& slot : slots_) {
      if (slot.rec != kNone) ++recs_[slot.rec].end;
    }
    occ_.clear();
    LayOutLists(0, std::views::iota(0u, n_));
  }

  // Removes the occurrence of a digram of two distinct symbols at p.
  void DropPair(uint32_t p) {
    --recs_[slots_[p].rec].count;
    slots_[p].rec = kNone;
  }

  // The run ending at the position after `last` loses that position.
  // Walking a run costs its length; a round walks only runs of its two
  // symbols, whose (a, a) counts (>= a third of the run lengths) are at most
  // the round's count, so walks add O(replacements) in total.
  void ShrinkRunEnd(uint32_t last) {
    const uint32_t x = slots_[last].sym;
    uint32_t start = last;
    uint32_t len = 2;
    for (uint32_t h = Prev(start); h != kNone && slots_[h].sym == x; h = Prev(h)) {
      start = h;
      ++len;
    }
    recs_[slots_[start].rec].count -= len / 2 - (len - 1) / 2;
    if (len == 2) slots_[start].rec = kNone;
  }

  // The run starting at `start` loses that position; `new_start` follows it.
  void ShiftRunStart(uint32_t start, uint32_t new_start) {
    const uint32_t y = slots_[start].sym;
    uint32_t len = 2;
    for (uint32_t k = Next(new_start); k != kNone && slots_[k].sym == y; k = Next(k)) ++len;
    const uint32_t r = slots_[start].rec;
    slots_[start].rec = kNone;
    recs_[r].count -= len / 2 - (len - 1) / 2;
    if (len > 2) slots_[new_start].rec = r;
  }

  // i takes the new symbol and j = next(i) becomes a hole, which joins the
  // holes between i and `after` = next(j) into one stretch. j keeps a
  // forward link even inside the stretch, for a run's list entry that names
  // it (see the class comment).
  void Contract(uint32_t i, uint32_t fresh) {
    const uint32_t j = Next(i);
    const uint32_t after = Next(j) == kNone ? n_ : Next(j);
    SLPSPAN_DCHECK(slots_[j].rec == kNone);  // repo-lint: allow(check-in-library)
    slots_[i].sym = fresh;
    slots_[j].sym = slots_[i + 1].sym = kHoleBit | after;
    slots_[after - 1].rec = i;
    ++holes_;
    AddFresh(i, fresh);
  }

  // Indexes the digrams formed by `fresh` at i. Occurrences are replaced
  // left to right, so the left neighbour is final, while the right one may
  // still be replaced: consecutive new symbols form a block whose run and
  // right digram are indexed once the block is closed.
  void AddFresh(uint32_t i, uint32_t fresh) {
    const uint32_t h = Prev(i);
    if (h != kNone && h == block_end_) {
      block_end_ = i;
      ++block_len_;
      return;
    }
    CloseBlock(fresh);
    if (h != kNone) Link(h, RoundRecord(left_rec_, slots_[h].sym, true, fresh), 1);
    block_start_ = block_end_ = i;
    block_len_ = 1;
  }

  void CloseBlock(uint32_t fresh) {
    if (block_start_ == kNone) return;
    if (block_len_ >= 2) {
      Link(block_start_, RoundRecord(right_rec_, fresh, false, fresh), block_len_ / 2);
    }
    const uint32_t k = Next(block_end_);
    if (k != kNone) Link(block_end_, RoundRecord(right_rec_, slots_[k].sym, false, fresh), 1);
    block_start_ = block_end_ = kNone;
  }

  // Occurrence of (x, y), x != y, at i. A left neighbour that already
  // carries `fresh` was replaced earlier this round (AddFresh indexes its
  // digrams).
  void ReplaceOccurrence(uint32_t i, uint32_t fresh) {
    const uint32_t x = slots_[i].sym;
    const uint32_t j = Next(i);
    const uint32_t y = slots_[j].sym;
    slots_[i].rec = kNone;
    const uint32_t h = Prev(i);
    if (h != kNone && slots_[h].sym != fresh) {
      if (slots_[h].sym == x) {
        ShrinkRunEnd(h);
      } else {
        DropPair(h);
      }
    }
    const uint32_t k = Next(j);
    if (k != kNone && slots_[k].sym != fresh) {
      if (slots_[k].sym == y) {
        ShiftRunStart(j, k);
      } else {
        DropPair(j);
      }
    }
    Contract(i, fresh);
  }

  // Run x^len starting at `start`: becomes fresh^(len/2), plus the last x
  // when len is odd (whose digram with its right neighbour is unchanged).
  void ReplaceRun(uint32_t start, uint32_t fresh) {
    const uint32_t x = slots_[start].sym;
    slots_[start].rec = kNone;
    uint32_t end = start;
    uint32_t len = 1;
    for (uint32_t k = Next(end); k != kNone && slots_[k].sym == x; k = Next(k)) {
      end = k;
      ++len;
    }
    const uint32_t h = Prev(start);
    if (h != kNone && slots_[h].sym != fresh) DropPair(h);
    if (len % 2 == 0 && Next(end) != kNone) DropPair(end);
    uint32_t p = start;
    for (uint32_t t = 0; t < len / 2; ++t) {
      Contract(p, fresh);
      p = Next(p);
    }
  }

  // This round's record of the digram (sym, fresh) when `left`, else
  // (fresh, sym). `by_sym` remembers the record last made per sym; one made
  // before first_new_ belongs to an earlier round.
  uint32_t RoundRecord(std::vector<uint32_t>& by_sym, uint32_t sym, bool left,
                       uint32_t fresh) {
    uint32_t& r = by_sym[sym];
    if (r == kNone || r < first_new_) r = NewRecord(left ? Key(sym, fresh) : Key(fresh, sym));
    return r;
  }

  uint32_t n_;          // positions, holes included
  uint32_t holes_ = 0;
  std::vector<SymbolId> terminals_;  // by working symbol
  std::vector<Slot> slots_;
  std::vector<PairRecord> recs_;
  std::vector<uint32_t> occ_;  // occurrence list entries (positions)
  std::vector<HeapEntry> heap_;
  std::vector<uint32_t> linked_;  // positions linked since the last layout
  // This round's record of (sym, fresh) / (fresh, sym), indexed by sym.
  std::vector<uint32_t> left_rec_, right_rec_;
  uint32_t current_ = kNone;    // record being replaced
  uint32_t first_new_ = 0;      // first record made this round
  uint32_t block_start_ = kNone;  // open block of this round's symbol
  uint32_t block_end_ = kNone;
  uint32_t block_len_ = 0;
};

template <typename Text>
Slp Compress(const Text& text) {
  // Contract: Document::FromText rejects empty text first.
  SLPSPAN_CHECK(!text.empty());  // repo-lint: allow(check-in-library)
  // No pair is ever asked for twice, so the assembler need not look pairs
  // up: a replaced digram cannot form again (every new adjacency involves
  // the new symbol), no digram of the final sequence repeats, and every
  // pair Balanced makes above its first level has a child it just made.
  CnfAssembler a(/*dedup_pairs=*/false);
  std::vector<NtId> parts;
  {
    DigramIndex index(text);
    const uint32_t t = index.NumTerminals();
    auto to_nt = [&](uint32_t work_sym) -> NtId {
      if (work_sym >= t) return work_sym - t;
      return a.Leaf(index.Terminal(work_sym));
    };
    for (std::pair<uint32_t, uint32_t> best; index.PopMostFrequent(&best);) {
      const NtId fresh = a.Pair(to_nt(best.first), to_nt(best.second));
      index.ReplaceAll(t + fresh);
    }
    for (uint32_t s : index.Sequence()) parts.push_back(to_nt(s));
  }
  return a.Finish(a.Balanced(parts));
}

}  // namespace

Status CheckRePairInput(size_t symbols) {
  if (symbols <= kRePairMaxSymbols) return Status::OK();
  return Status::InvalidArgument("RePair accepts at most " + std::to_string(kRePairMaxSymbols) +
                                 " symbols, got " + std::to_string(symbols));
}

Slp RePairCompress(const std::vector<SymbolId>& text) { return Compress(text); }

Slp RePairCompress(std::string_view text) { return Compress(text); }

}  // namespace slpspan
