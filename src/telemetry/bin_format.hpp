#pragma once

/// @file bin_format.hpp
/// Internal exadigit-bin wire helpers shared by store.cpp (the v1 writer)
/// and chunk.cpp (the one chunk-block reader and the chunked writer). Not
/// installed as public API.
///
/// On-disk layout (everything little-endian):
///   v1: magic "EXDGBIN\x01" | u64 channel_count | channel blocks
///   v2: magic "EXDGBIN\x02" | chunk blocks back-to-back until EOF,
///       each chunk block: u64 channel_count | channel blocks
/// channel block:
///   u32 tag_len | tag bytes | u32 channel_len | channel bytes |
///   u64 sample_count | double times[n] | double values[n]
/// v2 files additionally carry a manifest "chunks" index with per-chunk
/// time ranges and byte offsets, whose entries tile the file after the
/// magic, so a reader can seek to any window.

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace exadigit::binfmt {

inline constexpr char kMagicV1[8] = {'E', 'X', 'D', 'G', 'B', 'I', 'N', '\x01'};
inline constexpr char kMagicV2[8] = {'E', 'X', 'D', 'G', 'B', 'I', 'N', '\x02'};

inline void require_little_endian() {
  // The on-disk format is little-endian; rather than silently writing a
  // byte-swapped file on exotic hosts, refuse.
  if constexpr (std::endian::native != std::endian::little) {
    throw TelemetryError("exadigit-bin requires a little-endian host");
  }
}

/// Reads the 8-byte magic and returns the format version (1 or 2).
inline int read_magic(std::istream& is, const std::string& path) {
  char magic[sizeof kMagicV1] = {};
  is.read(magic, sizeof magic);
  if (is.good() && std::memcmp(magic, kMagicV1, sizeof kMagicV1) == 0) return 1;
  if (is.good() && std::memcmp(magic, kMagicV2, sizeof kMagicV2) == 0) return 2;
  throw TelemetryError("bad channels.bin magic in " + path);
}

template <typename T>
void write_pod(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!is.good()) throw TelemetryError("truncated channels.bin reading " + std::string(what));
  return value;
}

inline std::string read_string(std::istream& is, const char* what) {
  const auto len = read_pod<std::uint32_t>(is, what);
  // A name longer than this is certainly a corrupt or foreign file; fail
  // before attempting a multi-gigabyte allocation.
  if (len > 4096) throw TelemetryError("implausible name length in channels.bin");
  std::string s(len, '\0');
  is.read(s.data(), len);
  if (!is.good()) throw TelemetryError("truncated channels.bin reading " + std::string(what));
  return s;
}

inline void write_channel_block(std::ostream& os, const std::string& tag,
                                const std::string& channel, const std::vector<double>& times,
                                const std::vector<double>& values) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(tag.size()));
  os.write(tag.data(), static_cast<std::streamsize>(tag.size()));
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(channel.size()));
  os.write(channel.data(), static_cast<std::streamsize>(channel.size()));
  write_pod<std::uint64_t>(os, times.size());
  const auto bytes = static_cast<std::streamsize>(times.size() * sizeof(double));
  os.write(reinterpret_cast<const char*>(times.data()), bytes);
  os.write(reinterpret_cast<const char*>(values.data()), bytes);
}

/// A channel block's key and sample count: everything before its samples.
struct ChannelBlockHeader {
  std::string tag;
  std::string channel;
  std::uint64_t samples = 0;

  /// Encoded size of the header: the two length-prefixed names and the
  /// count.
  [[nodiscard]] std::uint64_t bytes() const {
    return 2 * sizeof(std::uint32_t) + tag.size() + channel.size() + sizeof(std::uint64_t);
  }
};

/// Reads a channel block up to its samples. `file_size` (when non-zero)
/// bounds the sample count, so a corrupt count field fails cleanly instead
/// of allocating or seeking far beyond the file.
inline ChannelBlockHeader read_channel_header(std::istream& is, std::uintmax_t file_size) {
  ChannelBlockHeader header;
  header.tag = read_string(is, "tag");
  header.channel = read_string(is, "channel name");
  header.samples = read_pod<std::uint64_t>(is, "sample count");
  if (file_size != 0 && header.samples > file_size / (2 * sizeof(double))) {
    throw TelemetryError("implausible sample count in channels.bin: " +
                         std::to_string(header.samples));
  }
  return header;
}

/// The error for a block whose samples run past the data that holds them.
[[nodiscard]] inline TelemetryError truncated_samples(const std::string& path) {
  return TelemetryError("truncated channels.bin samples in " + path);
}

/// One decoded channel block.
struct ChannelBlock {
  std::string tag;
  std::string channel;
  std::vector<double> times;
  std::vector<double> values;
};

/// Reads the samples of the block whose header was just read.
inline ChannelBlock read_channel_samples(std::istream& is, ChannelBlockHeader header,
                                         const std::string& path) {
  ChannelBlock block{std::move(header.tag), std::move(header.channel), {}, {}};
  block.times.resize(header.samples);
  block.values.resize(header.samples);
  const auto bytes = static_cast<std::streamsize>(header.samples * sizeof(double));
  is.read(reinterpret_cast<char*>(block.times.data()), bytes);
  is.read(reinterpret_cast<char*>(block.values.data()), bytes);
  if (!is.good()) throw truncated_samples(path);
  return block;
}

/// Bump the process-wide binary I/O counters (defined in store.cpp) behind
/// dataset_io_stats(): note_binary_read per batch of decoded samples,
/// note_binary_file_read once per channels.bin a reader opens.
void note_binary_read(std::uint64_t samples);
void note_binary_file_read();

}  // namespace exadigit::binfmt
