#pragma once

/// @file store.hpp
/// Telemetry dataset persistence, the manifest codec, and the pluggable
/// reader registry.
///
/// The paper's generalized RAPS reads "different types of bespoke telemetry
/// datasets" through a pluggable architecture (Section V; e.g. Frontier's
/// internal schema vs the public PM100 dataset). Here a TelemetryReader is
/// an interface keyed by format name in a registry; the library ships two
/// native formats plus test-registered synthetic adapters. Both native
/// formats are a directory holding manifest.json (the format name, the
/// DatasetHeader fields, and for exadigit-bin v2 a chunk index) and
/// jobs.json (the job list), plus the channel data:
///
///  - "exadigit-csv": long-format channel CSVs (system.csv / cdu.csv /
///    facility.csv with tag,channel,time_s,value rows). Human-readable;
///    numbers are written in shortest round-trip form, so save -> load ->
///    save is bit-identical.
///  - "exadigit-bin": channels.bin, a little-endian block of contiguous
///    per-channel (times, values) double arrays. Written and read
///    streaming, channel at a time — a 183-day dataset never materializes
///    row-of-strings intermediates.
///
/// read_manifest / read_jobs / write_manifest are the only code that reads
/// or writes manifest.json and jobs.json; read_manifest validates every
/// field before anything is sized from it. A loaded dataset is a
/// DatasetFrame: a DatasetHeader plus a columnar TelemetryFrame (see
/// frame.hpp), each channel file parsed exactly once. to_dataset() moves
/// the frame's arrays into the TelemetryDataset schema slots.
///
/// The read path: load_dataset_frame dispatches on the manifest's format.
/// exadigit-csv streams each channel CSV once; exadigit-bin goes through
/// BinChunkSource's chunk-block decoder (chunk.hpp) along the manifest's
/// chunk index, the same decoder a streamed replay pulls windows through,
/// so both reads accept and refuse the same files. The original
/// per-channel-rescan CSV loader survives as load_dataset_reference(), the
/// correctness reference the columnar and binary paths are validated
/// against.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/frame.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {

/// Native dataset format names (manifest.json "format" values).
inline constexpr const char* kExadigitCsvFormat = "exadigit-csv";
inline constexpr const char* kExadigitBinFormat = "exadigit-bin";

/// Process-wide dataset I/O counters (atomically maintained; a snapshot is
/// returned). Tests assert single-pass behavior through these: loading an
/// exadigit-csv dataset must bump csv_file_parses by exactly one per
/// channel file, however many channels each file carries.
struct DatasetIoStats {
  std::uint64_t csv_file_parses = 0;   ///< full streaming passes over channel CSVs
  std::uint64_t csv_rows = 0;          ///< long-format rows bucketed into channels
  std::uint64_t binary_file_reads = 0; ///< channels.bin files read
  std::uint64_t binary_samples = 0;    ///< samples adopted from channels.bin
};
[[nodiscard]] DatasetIoStats dataset_io_stats();
void reset_dataset_io_stats();

/// A loaded-but-unmaterialized dataset: the header, with every sensor
/// channel still columnar. Consumers that only need a few channels (e.g.
/// replay_power) can take them from the frame without paying for the rest.
struct DatasetFrame {
  DatasetHeader header;
  TelemetryFrame frame;

  /// Materializes the schema view by moving channels out of the frame;
  /// channels under keys no schema slot consumes are dropped (matching the
  /// reference loader, which only ever looked up known keys). Validates.
  [[nodiscard]] TelemetryDataset to_dataset() &&;
};

/// One entry of the exadigit-bin v2 manifest chunk index.
struct ChunkIndexEntry {
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  std::uint64_t offset = 0;  ///< byte offset of the chunk block in channels.bin
  std::uint64_t bytes = 0;   ///< encoded size of the chunk block
};

/// Largest cdu_count a manifest may declare (Frontier has 25). Loading
/// sizes the per-CDU slots from it, so the reader rejects anything larger
/// before allocating.
inline constexpr std::size_t kMaxDatasetCdus = 4096;

/// The decoded manifest.json of a dataset directory.
struct DatasetManifest {
  std::string format;                   ///< kExadigitCsvFormat, kExadigitBinFormat, ...
  DatasetHeader header;                 ///< jobs come from jobs.json (read_jobs)
  std::vector<ChunkIndexEntry> chunks;  ///< exadigit-bin v2 chunk index, else empty
};

/// Reads manifest.json alone (never jobs.json, which can be large), so a
/// format check is cheap. Throws TelemetryError naming the field unless
/// cdu_count is an integer in [0, kMaxDatasetCdus] and every chunk index
/// entry has integer offset >= 8 and bytes >= 0 lying inside channels.bin,
/// start_time_s <= end_time_s, and a start time no earlier than the
/// previous entry's. The entries must also tile channels.bin, or the error
/// names chunks[i]: the first offset is 8 (just past the magic), each
/// later offset is the previous entry's offset plus its bytes, and the
/// last entry ends at the file size.
[[nodiscard]] DatasetManifest read_manifest(const std::string& directory);

/// Reads jobs.json.
[[nodiscard]] std::vector<JobRecord> read_jobs(const std::string& directory);

/// Writes jobs.json (the header's job list) and manifest.json, creating
/// the directory if missing. The chunk index is written when non-empty.
void write_manifest(const std::string& directory, const DatasetManifest& manifest);

/// Reads a TelemetryDataset from some external source (directory, file...).
class TelemetryReader {
 public:
  virtual ~TelemetryReader() = default;
  /// Format name used for registry lookup (e.g. "exadigit-csv").
  [[nodiscard]] virtual std::string format() const = 0;
  /// Loads a dataset; `source` semantics are format-defined.
  [[nodiscard]] virtual TelemetryDataset load(const std::string& source) const = 0;
};

/// Registry of reader factories keyed by format name.
class TelemetryReaderRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in formats:
  /// exadigit-csv, exadigit-bin and swf.
  static TelemetryReaderRegistry& instance();

  void register_reader(std::shared_ptr<TelemetryReader> reader);
  [[nodiscard]] std::shared_ptr<TelemetryReader> find(const std::string& format) const;
  [[nodiscard]] TelemetryDataset load(const std::string& format,
                                      const std::string& source) const;
  [[nodiscard]] std::vector<std::string> formats() const;

 private:
  std::map<std::string, std::shared_ptr<TelemetryReader>> readers_;
};

/// Saves a dataset in the native exadigit-csv layout under `directory`
/// (created if missing): manifest.json, jobs.json, system.csv, cdu.csv,
/// facility.csv. Series numbers use shortest round-trip formatting.
void save_dataset(const TelemetryDataset& dataset, const std::string& directory);

/// Saves a dataset in the exadigit-bin layout under `directory`:
/// manifest.json, jobs.json, channels.bin (streamed channel at a time).
void save_dataset_binary(const TelemetryDataset& dataset, const std::string& directory);

/// Single-pass columnar load of either native layout, dispatching on the
/// manifest "format"; exadigit-bin follows the manifest's chunk index (a
/// v1 file reads as one chunk). When `expected_format` is non-empty the
/// manifest must name exactly that format (used by the per-format registry
/// readers).
[[nodiscard]] DatasetFrame load_dataset_frame(const std::string& directory,
                                              const std::string& expected_format = "");

/// Loads a dataset saved by save_dataset or save_dataset_binary
/// (load_dataset_frame + to_dataset).
[[nodiscard]] TelemetryDataset load_dataset(const std::string& directory);

/// The original O(channels x rows) exadigit-csv loader (one full document
/// scan per channel), kept as the reference path for equivalence tests.
[[nodiscard]] TelemetryDataset load_dataset_reference(const std::string& directory);

}  // namespace exadigit
