// libFuzzer binary for the snappy/heavy page decoders (built only with
// -DTC_FUZZERS=ON).
#include "fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return tc::FuzzDecompress(data, size);
}
