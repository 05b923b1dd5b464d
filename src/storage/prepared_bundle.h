// Serialization of whole prepared states ("prepared bundles", .prep files):
// the sentinel-extended grammar, the Lemma 6.5 evaluation tables and — when
// they have materialized — the counting tables, sealed in the checksummed
// container of bundle_format.h.
//
// Section encodings (inside the payload):
//
//   [grammar]   num_nts u32, root u32, then per non-terminal
//               left u32, right u32 (right == 0xFFFFFFFF marks a leaf whose
//               terminal symbol is `left`). Ids are preserved verbatim —
//               deserialization goes through Slp::FromRules, not the
//               renumbering CnfAssembler — so the tables stay aligned.
//   [tables]    q u32, then per non-terminal the U and W bit-matrices, then
//               the per-leaf M_Tx cell grids. Matrices and grids carry a
//               1-byte format tag choosing dense or sparse encoding,
//               whichever is smaller — the U/W matrices of real documents
//               are mostly zero words, which shrinks bundles by an order of
//               magnitude and is what makes warm-from-disk ≫ re-prepare.
//   [counter]   (optional, header flag) the CountTables snapshot: key-sorted
//               packed-triple counts, final states, total, overflow bit.
//
// That is the v1 layout, readable forever. Format v2 (what every writer
// but the frozen v1 reference emits) keeps the same section order but
// routes every integer stream through the bitpacked tagged streams of
// src/storage/codec/: a compact delta-varint grammar, dense-coded /
// sparse-coded matrices and grids, and packed counter streams. The reader
// always follows the tags in the file; docs/STORAGE_CODECS.md has the
// byte-level map.
//
// Deserialization is strictly bounds-checked (see bundle_format.h) and
// returns Status errors — kCorruption for damaged input, kInvalidArgument
// for a bundle built for a different document or query — never aborting.
// The counter section is materialized *lazily*: the loaded PreparedState
// parses it on the first Count/At/Sample, so IsNonEmpty/Extract-only
// workloads never pay for it.

#ifndef SLPSPAN_STORAGE_PREPARED_BUNDLE_H_
#define SLPSPAN_STORAGE_PREPARED_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/internal.h"
#include "util/status.h"

namespace slpspan {
namespace storage {

using StatePtr = std::shared_ptr<const api_internal::PreparedState>;

/// Serializes `state` (grammar + tables + counter-if-materialized) into a
/// sealed format-v2 bundle image.
std::string SerializePreparedState(const api_internal::PreparedState& state,
                                   uint64_t doc_fp, uint64_t query_fp);

/// The frozen format-v1 writer, byte-for-byte the legacy layout. Not
/// reachable from the public API, the CLI or the spill tier: it is the
/// reference that compression checks (bench E17, storage tests) measure
/// format v2 against.
std::string SerializePreparedStateV1(const api_internal::PreparedState& state,
                                     uint64_t doc_fp, uint64_t query_fp);

/// Deserializes a bundle image. The expected fingerprints come from the
/// (document, query) pair the caller wants to serve; a mismatch is
/// kInvalidArgument (the bundle is intact but belongs to someone else).
/// `recharge` is attached to the resulting state (see PreparedState).
Result<StatePtr> DeserializePreparedState(
    const uint8_t* data, size_t size, uint64_t expected_doc_fp,
    uint64_t expected_query_fp, api_internal::PreparedState::RechargeFn recharge);

/// Writes `bytes` to a uniquely-named temp file next to `final_path`
/// (pid + counter suffix, so concurrent writers — even across processes
/// sharing a spill directory — never interleave) and returns the temp
/// path; the caller renames it into place. The temp is removed on failure.
Result<std::string> WriteTempFile(const std::string& final_path,
                                  const std::string& bytes);

/// Atomic file write shared by bundle export and the spill store:
/// WriteTempFile + rename, with the temp removed on any failure.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Atomic bundle file write: SerializePreparedState + WriteFileAtomic.
Status WritePreparedBundleFile(const std::string& path,
                               const api_internal::PreparedState& state,
                               uint64_t doc_fp, uint64_t query_fp);

/// mmap-backed bundle file read (see mmap_file.h) + DeserializePreparedState.
Result<StatePtr> LoadPreparedBundleFile(
    const std::string& path, uint64_t expected_doc_fp,
    uint64_t expected_query_fp, api_internal::PreparedState::RechargeFn recharge);

/// Canonical spill-store file name for a fingerprint pair
/// ("pb-<doc_fp>-<query_fp>.prep", fingerprints in fixed-width hex). Bundles
/// dropped into a spill directory under this name are picked up by the
/// store's scan — the fleet pre-warming hook.
std::string SpillFileName(uint64_t doc_fp, uint64_t query_fp);

/// Inverse of SpillFileName; false if `name` is not a spill bundle name.
bool ParseSpillFileName(const std::string& name, uint64_t* doc_fp,
                        uint64_t* query_fp);

}  // namespace storage
}  // namespace slpspan

#endif  // SLPSPAN_STORAGE_PREPARED_BUNDLE_H_
