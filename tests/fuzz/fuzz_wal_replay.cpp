// libFuzzer binary for write-ahead log replay and LSM crash recovery (built
// only with -DTC_FUZZERS=ON).
#include "fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return tc::FuzzWalReplay(data, size);
}
