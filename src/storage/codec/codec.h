// Integer streams of the ".prep" bundle format v2 — the one layer allowed
// to turn a section's uint64 stream into bytes and back.
//
// Every v2 section that carries an integer stream writes it as a *tagged
// stream*: one tag byte followed by the encoding of `count` values, where
// `count` is always known to the reader from surrounding section data
// (never trusted from the stream itself). One writer, two readers:
//
//   tag 2  bitpack — blocks of 128 values packed LSB-first at the block's
//          max bit width (one width byte per block, then
//          ceil(n*width/8) bytes). The only encoding the writer emits.
//   tag 0  raw — count fixed-width little-endian u64 words. Read-only:
//          earlier writers used it for empty and size-tied streams.
//
// Tags 1 (VarintGB) and 3 (Elias-Fano) are retired: picking among codecs
// per stream saved 0.008 % on bench E17. Earlier writers emitted them
// (the old default chose VarintGB wherever it tied or beat bitpack), so
// such bundles exist; they decode to kCorruption like any unknown tag,
// which the spill tier treats as a miss (delete and rebuild).
//
// Decoders are strictly bounds-checked, mirroring bundle_format.h: every
// length implied by the input is validated against the reader's remaining
// bytes *before* any allocation is sized from it, so truncated, corrupt or
// adversarial input surfaces as Status (kCorruption) — never a crash, hang
// or out-of-bounds access. Encoded bytes round-trip bit-identically
// (property-tested in tests/codec_test.cc, fuzzed against garbage there
// too).

#ifndef SLPSPAN_STORAGE_CODEC_CODEC_H_
#define SLPSPAN_STORAGE_CODEC_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/bundle_format.h"
#include "util/status.h"

namespace slpspan {
namespace storage {
namespace codec {

/// Wire tags a reader accepts — the first byte of a tagged stream.
inline constexpr uint8_t kRawTag = 0;
inline constexpr uint8_t kBitPackTag = 2;

/// Writes `values[0..count)` as a bitpack-tagged stream.
void WriteTaggedU64s(const uint64_t* values, size_t count, BundleWriter* w);

/// Reads a tagged stream of exactly `count` values into `*out`;
/// kCorruption on a retired or unknown tag or a malformed payload.
Status ReadTaggedU64s(BundleReader* r, size_t count,
                      std::vector<uint64_t>* out);

}  // namespace codec
}  // namespace storage
}  // namespace slpspan

#endif  // SLPSPAN_STORAGE_CODEC_CODEC_H_
