// Fuzz entry points shared by the libFuzzer binaries (TC_FUZZERS=ON, Clang),
// the standalone driver (any compiler), and the always-on corpus-replay gtest.
// Each target returns 0 and aborts (TC_CHECK) on an invariant violation, so
// the same body serves every harness.
#ifndef TC_TESTS_FUZZ_FUZZ_TARGETS_H_
#define TC_TESTS_FUZZ_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace tc {

/// ParseAdm over arbitrary bytes. Invariants: never crashes, and any value it
/// accepts survives a print -> reparse round trip.
int FuzzParseAdm(const uint8_t* data, size_t size);

/// DeserializeSchema over arbitrary bytes. Invariants: never crashes, never
/// reads past `size`, and any schema it accepts re-serializes to a canonical
/// form that deserializes to the same bytes again.
int FuzzDeserializeSchema(const uint8_t* data, size_t size);

/// The snappy and heavy page decoders over arbitrary bytes, each decoding
/// into a heap buffer exactly as large as the stream's declared length.
/// Invariants: never crashes, never writes past the output capacity (checked
/// by a sentinel tail, and by the sanitizers on the exact buffer), and any
/// output a decoder accepts round-trips through the snappy codec.
int FuzzDecompress(const uint8_t* data, size_t size);

/// Arbitrary bytes as a write-ahead log segment, replayed by the log itself
/// and by crash recovery of an LSM tree whose only log segment it is.
/// Invariants: never crashes; the log and the tree accept or reject the same
/// bytes; accepted records are puts or deletes, frame exactly the bytes the
/// log reports, and survive a re-encode; and the recovered tree holds exactly
/// what those records say (the last put of a key wins, a delete removes it).
int FuzzWalReplay(const uint8_t* data, size_t size);

}  // namespace tc

#endif  // TC_TESTS_FUZZ_FUZZ_TARGETS_H_
