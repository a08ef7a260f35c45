// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the one checksum
// shared by the wire layer (TCP frame payload integrity, codec envelopes)
// and the render journal (record framing and pixel digests), which CRCs
// every frame twice on the commit path. No dependencies.
//
// Slicing-by-8: eight compile-time tables fold eight bytes per step
// (BM_Crc32). Words are assembled from bytes explicitly, so the code is
// portable C++ with no intrinsics, build flag or CPU dispatch, and every
// input (any length, alignment or chained split) yields the bytewise
// definition's value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace now {

/// CRC-32 of `len` bytes. Chain blocks by passing the previous return value
/// as `seed` (the seed of an independent checksum is 0).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

inline std::uint32_t crc32(const std::string& bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace now
