#include "telemetry/store.hpp"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "json/json.hpp"
#include "telemetry/bin_format.hpp"
#include "telemetry/chunk.hpp"
#include "telemetry/swf.hpp"

namespace exadigit {

namespace {

// ------------------------------------------------------------- I/O stats

std::atomic<std::uint64_t> g_csv_file_parses{0};
std::atomic<std::uint64_t> g_csv_rows{0};
std::atomic<std::uint64_t> g_binary_file_reads{0};
std::atomic<std::uint64_t> g_binary_samples{0};

// ------------------------------------------------------------- jobs JSON

Json job_to_json(const JobRecord& j) {
  Json o;
  o["name"] = Json(j.name);
  o["id"] = Json(j.id);
  o["node_count"] = Json(j.node_count);
  o["submit_time_s"] = Json(j.submit_time_s);
  o["wall_time_s"] = Json(j.wall_time_s);
  o["mean_cpu_util"] = Json(j.mean_cpu_util);
  o["mean_gpu_util"] = Json(j.mean_gpu_util);
  o["fixed_start_time_s"] = Json(j.fixed_start_time_s);
  if (!j.partition.empty()) o["partition"] = Json(j.partition);
  if (!j.user.empty()) o["user"] = Json(j.user);
  if (j.priority != 0.0) o["priority"] = Json(j.priority);
  if (!j.cpu_util_trace.empty()) {
    Json arr;
    for (double u : j.cpu_util_trace) arr.push_back(Json(u));
    o["cpu_util_trace"] = arr;
  }
  if (!j.gpu_util_trace.empty()) {
    Json arr;
    for (double u : j.gpu_util_trace) arr.push_back(Json(u));
    o["gpu_util_trace"] = arr;
  }
  return o;
}

JobRecord job_from_json(const Json& o) {
  JobRecord j;
  j.name = o.string_or("name", "");
  j.id = o.int_or("id", 0);
  j.node_count = o.int32_or("node_count", 0);
  j.submit_time_s = o.number_or("submit_time_s", 0.0);
  j.wall_time_s = o.number_or("wall_time_s", 0.0);
  j.mean_cpu_util = o.number_or("mean_cpu_util", 0.0);
  j.mean_gpu_util = o.number_or("mean_gpu_util", 0.0);
  j.fixed_start_time_s = o.number_or("fixed_start_time_s", -1.0);
  j.partition = o.string_or("partition", "");
  j.user = o.string_or("user", "");
  j.priority = o.number_or("priority", 0.0);
  if (o.contains("cpu_util_trace")) {
    for (const auto& v : o.at("cpu_util_trace").as_array()) {
      j.cpu_util_trace.push_back(v.as_number());
    }
  }
  if (o.contains("gpu_util_trace")) {
    for (const auto& v : o.at("gpu_util_trace").as_array()) {
      j.gpu_util_trace.push_back(v.as_number());
    }
  }
  return j;
}

// ---------------------------------------------------------- manifest JSON

Json chunk_index_to_json(const std::vector<ChunkIndexEntry>& index) {
  Json arr{Json::Array{}};
  for (const ChunkIndexEntry& e : index) {
    Json entry;
    entry["start_time_s"] = Json(e.start_time_s);
    entry["end_time_s"] = Json(e.end_time_s);
    entry["offset"] = Json(static_cast<double>(e.offset));
    entry["bytes"] = Json(static_cast<double>(e.bytes));
    arr.push_back(std::move(entry));
  }
  return arr;
}

/// The integer manifest field `key` of `object` (named `where` + `key` in
/// errors), which must lie in [lo, hi]. Range-checked as a double before
/// the cast, so no value is ever converted out of range.
std::uint64_t manifest_integer(const Json& object, const std::string& where, const char* key,
                               double lo, double hi) {
  const double v = object.number_or(key, 0.0);
  if (!(v >= lo && v <= hi) || std::nearbyint(v) != v) {
    throw TelemetryError("manifest " + where + key + " must be an integer in [" +
                         format_double(lo) + ", " + format_double(hi) + "], got " +
                         format_double(v));
  }
  return static_cast<std::uint64_t>(v);
}

/// Decodes the v2 chunk index, checking every entry against the size of
/// the channels.bin it points into: the entries must tile the file, the
/// first starting just past the magic, each next one where the previous
/// ends, and the last ending at the file's end.
std::vector<ChunkIndexEntry> chunk_index_from_json(const Json& arr, std::uint64_t file_bytes) {
  std::vector<ChunkIndexEntry> index;
  std::uint64_t end = sizeof binfmt::kMagicV2;  // where the next entry must start
  for (const Json& entry : arr.as_array()) {
    const std::string where = "chunks[" + std::to_string(index.size()) + "].";
    ChunkIndexEntry e;
    e.start_time_s = entry.number_or("start_time_s", 0.0);
    e.end_time_s = entry.number_or("end_time_s", 0.0);
    if (!(e.start_time_s <= e.end_time_s)) {
      throw TelemetryError("manifest " + where + "start_time_s " + format_double(e.start_time_s) +
                           " is after its end_time_s " + format_double(e.end_time_s));
    }
    if (!index.empty() && e.start_time_s < index.back().start_time_s) {
      throw TelemetryError("manifest " + where + "start_time_s " + format_double(e.start_time_s) +
                           " is before the previous chunk's");
    }
    const auto size = static_cast<double>(file_bytes);
    e.offset = manifest_integer(entry, where, "offset",
                                static_cast<double>(sizeof binfmt::kMagicV2), size);
    e.bytes = manifest_integer(entry, where, "bytes", 0.0, size);
    if (e.offset > file_bytes || e.bytes > file_bytes - e.offset) {
      throw TelemetryError("manifest " + where + "offset + bytes runs past the " +
                           std::to_string(file_bytes) + "-byte channels.bin");
    }
    if (e.offset != end) {
      throw TelemetryError("manifest " + where + "offset " + std::to_string(e.offset) +
                           " must be " + std::to_string(end) +
                           ", where the previous chunk (or the magic) ends: the index must "
                           "tile channels.bin");
    }
    end = e.offset + e.bytes;
    index.push_back(e);
  }
  if (!index.empty() && end != file_bytes) {
    throw TelemetryError("manifest chunks[" + std::to_string(index.size() - 1) +
                         "] ends at byte " + std::to_string(end) + " of the " +
                         std::to_string(file_bytes) +
                         "-byte channels.bin: the index must tile channels.bin");
  }
  return index;
}

// --------------------------------------------------- long-format CSV path

/// Long-format channel writer: appends (tag, channel, t, v) rows in
/// shortest round-trip form so a reload reproduces the doubles exactly.
void append_series(CsvDocument& doc, const std::string& tag, const std::string& channel,
                   const TimeSeries& series) {
  for (std::size_t i = 0; i < series.size(); ++i) {
    doc.add_row({tag, channel, format_double(series.time(i)),
                 format_double(series.value(i))});
  }
}

/// Extracts one channel from a long-format document (reference path: one
/// full document scan per call).
TimeSeries extract_series(const CsvDocument& doc, const std::string& tag,
                          const std::string& channel) {
  const std::size_t tag_col = doc.column("tag");
  const std::size_t ch_col = doc.column("channel");
  const std::size_t t_col = doc.column("time_s");
  const std::size_t v_col = doc.column("value");
  TimeSeries out;
  for (std::size_t r = 0; r < doc.row_count(); ++r) {
    const auto& row = doc.row(r);
    if (row[tag_col] != tag || row[ch_col] != channel) continue;
    out.push_back(parse_double(row[t_col], "time_s"), parse_double(row[v_col], "value"));
  }
  return out;
}

/// Streams one long-format channel CSV into `frame`: a single pass over
/// the file, bucketing each row into its (tag, channel) column, with no
/// whole-document row materialization.
void stream_channel_csv(const std::string& path, TelemetryFrame& frame) {
  std::ifstream f(path);
  require(f.good(), "cannot open csv for reading: " + path);
  CsvRecordReader reader(f);
  std::vector<std::string> record;
  if (!reader.next(record)) throw TelemetryError("csv stream is empty: " + path);
  const std::size_t width = record.size();
  auto column = [&](const char* name) {
    for (std::size_t i = 0; i < record.size(); ++i) {
      if (record[i] == name) return i;
    }
    throw TelemetryError("csv column not found: " + std::string(name) + " in " + path);
  };
  const std::size_t tag_col = column("tag");
  const std::size_t ch_col = column("channel");
  const std::size_t t_col = column("time_s");
  const std::size_t v_col = column("value");
  std::uint64_t rows = 0;
  while (reader.next(record)) {
    if (record.size() == 1 && record.front().empty()) continue;  // blank line
    if (record.size() != width) throw TelemetryError("csv row width mismatch in " + path);
    frame.append(record[tag_col], record[ch_col], parse_double(record[t_col], "time_s"),
                 parse_double(record[v_col], "value"));
    ++rows;
  }
  g_csv_file_parses.fetch_add(1, std::memory_order_relaxed);
  g_csv_rows.fetch_add(rows, std::memory_order_relaxed);
}

// ---------------------------------------------------- registry built-ins

/// Built-in reader for the native CSV layout.
class ExadigitCsvReader final : public TelemetryReader {
 public:
  [[nodiscard]] std::string format() const override { return kExadigitCsvFormat; }
  [[nodiscard]] TelemetryDataset load(const std::string& source) const override {
    return load_dataset_frame(source, kExadigitCsvFormat).to_dataset();
  }
};

/// Built-in reader for the native binary layout.
class ExadigitBinReader final : public TelemetryReader {
 public:
  [[nodiscard]] std::string format() const override { return kExadigitBinFormat; }
  [[nodiscard]] TelemetryDataset load(const std::string& source) const override {
    return load_dataset_frame(source, kExadigitBinFormat).to_dataset();
  }
};

}  // namespace

namespace binfmt {
void note_binary_read(std::uint64_t samples) {
  g_binary_samples.fetch_add(samples, std::memory_order_relaxed);
}
void note_binary_file_read() { g_binary_file_reads.fetch_add(1, std::memory_order_relaxed); }
}  // namespace binfmt

DatasetManifest read_manifest(const std::string& directory) {
  const Json json = Json::load_file(directory + "/manifest.json");
  DatasetManifest manifest;
  manifest.format = json.string_or("format", "");
  DatasetHeader& header = manifest.header;
  header.system_name = json.string_or("system_name", "");
  header.start_time_s = json.number_or("start_time_s", 0.0);
  header.duration_s = json.number_or("duration_s", 0.0);
  header.trace_quantum_s = json.number_or("trace_quantum_s", 15.0);
  header.cdu_count =
      manifest_integer(json, "", "cdu_count", 0.0, static_cast<double>(kMaxDatasetCdus));
  if (json.contains("chunks")) {
    const std::string bin = directory + "/channels.bin";
    std::error_code ec;
    const std::uintmax_t file_bytes = std::filesystem::file_size(bin, ec);
    if (ec) throw TelemetryError("manifest has a chunk index but cannot size " + bin);
    manifest.chunks = chunk_index_from_json(json.at("chunks"), file_bytes);
  }
  return manifest;
}

std::vector<JobRecord> read_jobs(const std::string& directory) {
  const Json jobs = Json::load_file(directory + "/jobs.json");
  std::vector<JobRecord> out;
  for (const Json& j : jobs.as_array()) out.push_back(job_from_json(j));
  return out;
}

void write_manifest(const std::string& directory, const DatasetManifest& manifest) {
  std::filesystem::create_directories(directory);
  // Explicitly an array: a job-less dataset must not serialize as null.
  Json jobs{Json::Array{}};
  for (const JobRecord& j : manifest.header.jobs) jobs.push_back(job_to_json(j));
  jobs.save_file(directory + "/jobs.json");

  const DatasetHeader& header = manifest.header;
  Json json;
  json["format"] = Json(manifest.format);
  json["system_name"] = Json(header.system_name);
  json["start_time_s"] = Json(header.start_time_s);
  json["duration_s"] = Json(header.duration_s);
  json["trace_quantum_s"] = Json(header.trace_quantum_s);
  json["cdu_count"] = Json(header.cdu_count);
  if (!manifest.chunks.empty()) json["chunks"] = chunk_index_to_json(manifest.chunks);
  json.save_file(directory + "/manifest.json");
}

DatasetIoStats dataset_io_stats() {
  DatasetIoStats s;
  s.csv_file_parses = g_csv_file_parses.load(std::memory_order_relaxed);
  s.csv_rows = g_csv_rows.load(std::memory_order_relaxed);
  s.binary_file_reads = g_binary_file_reads.load(std::memory_order_relaxed);
  s.binary_samples = g_binary_samples.load(std::memory_order_relaxed);
  return s;
}

void reset_dataset_io_stats() {
  g_csv_file_parses.store(0, std::memory_order_relaxed);
  g_csv_rows.store(0, std::memory_order_relaxed);
  g_binary_file_reads.store(0, std::memory_order_relaxed);
  g_binary_samples.store(0, std::memory_order_relaxed);
}

TelemetryDataset DatasetFrame::to_dataset() && {
  TelemetryDataset d;
  d.system_name = std::move(header.system_name);
  d.start_time_s = header.start_time_s;
  d.duration_s = header.duration_s;
  d.trace_quantum_s = header.trace_quantum_s;
  d.jobs = std::move(header.jobs);
  d.cdus.resize(header.cdu_count);
  for_each_channel(d, [this](const std::string& tag, const char* name, TimeSeries& slot) {
    slot = frame.take_series(tag, name);
  });
  d.validate();
  return d;
}

TelemetryReaderRegistry& TelemetryReaderRegistry::instance() {
  static TelemetryReaderRegistry registry = [] {
    TelemetryReaderRegistry r;
    r.register_reader(std::make_shared<ExadigitCsvReader>());
    r.register_reader(std::make_shared<ExadigitBinReader>());
    r.register_reader(std::make_shared<SwfReader>());
    return r;
  }();
  return registry;
}

void TelemetryReaderRegistry::register_reader(std::shared_ptr<TelemetryReader> reader) {
  require(reader != nullptr, "cannot register null telemetry reader");
  readers_[reader->format()] = std::move(reader);
}

std::shared_ptr<TelemetryReader> TelemetryReaderRegistry::find(const std::string& format) const {
  const auto it = readers_.find(format);
  return it == readers_.end() ? nullptr : it->second;
}

TelemetryDataset TelemetryReaderRegistry::load(const std::string& format,
                                               const std::string& source) const {
  const auto reader = find(format);
  if (reader == nullptr) throw TelemetryError("no telemetry reader for format: " + format);
  return reader->load(source);
}

std::vector<std::string> TelemetryReaderRegistry::formats() const {
  std::vector<std::string> out;
  out.reserve(readers_.size());
  for (const auto& [name, reader] : readers_) out.push_back(name);
  return out;
}

void save_dataset(const TelemetryDataset& dataset, const std::string& directory) {
  dataset.validate();
  write_manifest(directory, {kExadigitCsvFormat, DatasetHeader::copy_from(dataset), {}});

  CsvDocument system({"tag", "channel", "time_s", "value"});
  CsvDocument cdu({"tag", "channel", "time_s", "value"});
  CsvDocument facility({"tag", "channel", "time_s", "value"});
  for_each_channel(dataset, [&](const std::string& tag, const char* name, const TimeSeries& s) {
    CsvDocument& doc = tag == kSystemTag ? system : tag == kFacilityTag ? facility : cdu;
    append_series(doc, tag, name, s);
  });
  system.save(directory + "/system.csv");
  cdu.save(directory + "/cdu.csv");
  facility.save(directory + "/facility.csv");
}

void save_dataset_binary(const TelemetryDataset& dataset, const std::string& directory) {
  dataset.validate();
  binfmt::require_little_endian();
  write_manifest(directory, {kExadigitBinFormat, DatasetHeader::copy_from(dataset), {}});

  const std::string path = directory + "/channels.bin";
  std::ofstream f(path, std::ios::binary);
  require(f.good(), "cannot open channels.bin for writing: " + path);
  f.write(binfmt::kMagicV1, sizeof binfmt::kMagicV1);

  std::uint64_t channel_count = 0;
  for_each_channel(dataset, [&channel_count](const std::string&, const char*,
                                             const TimeSeries& s) {
    if (!s.empty()) ++channel_count;
  });
  binfmt::write_pod<std::uint64_t>(f, channel_count);
  for_each_channel(dataset, [&f](const std::string& tag, const char* name, const TimeSeries& s) {
    if (!s.empty()) binfmt::write_channel_block(f, tag, name, s.times(), s.values());
  });
  require(f.good(), "failed writing channels.bin: " + path);
}

DatasetFrame load_dataset_frame(const std::string& directory,
                                const std::string& expected_format) {
  DatasetManifest manifest = read_manifest(directory);
  const std::string& format = manifest.format;
  if (!expected_format.empty() && format != expected_format) {
    throw TelemetryError("dataset manifest format is '" + format + "', expected '" +
                         expected_format + "'");
  }
  // exadigit-bin goes through the streaming reader's decoder, along the
  // manifest's chunk index.
  if (format == kExadigitBinFormat) return BinChunkSource::load(directory);
  if (format != kExadigitCsvFormat) {
    throw TelemetryError("unexpected dataset format in manifest: '" + format + "'");
  }
  DatasetFrame out{std::move(manifest.header), TelemetryFrame{}};
  out.header.jobs = read_jobs(directory);
  stream_channel_csv(directory + "/system.csv", out.frame);
  stream_channel_csv(directory + "/cdu.csv", out.frame);
  stream_channel_csv(directory + "/facility.csv", out.frame);
  return out;
}

TelemetryDataset load_dataset(const std::string& directory) {
  return load_dataset_frame(directory).to_dataset();
}

TelemetryDataset load_dataset_reference(const std::string& directory) {
  const Json manifest = Json::load_file(directory + "/manifest.json");
  require(manifest.string_or("format", "") == kExadigitCsvFormat,
          "unexpected dataset format in manifest");
  TelemetryDataset d;
  d.system_name = manifest.string_or("system_name", "");
  d.start_time_s = manifest.number_or("start_time_s", 0.0);
  d.duration_s = manifest.number_or("duration_s", 0.0);
  d.trace_quantum_s = manifest.number_or("trace_quantum_s", 15.0);

  const Json jobs = Json::load_file(directory + "/jobs.json");
  for (const auto& j : jobs.as_array()) d.jobs.push_back(job_from_json(j));

  const CsvDocument system = CsvDocument::load(directory + "/system.csv");
  for (const SystemChannelDef& def : system_channel_defs()) {
    d.*(def.member) = extract_series(system, kSystemTag, def.name);
  }

  const CsvDocument cdu = CsvDocument::load(directory + "/cdu.csv");
  const std::size_t cdu_count = static_cast<std::size_t>(manifest.int_or("cdu_count", 0));
  d.cdus.resize(cdu_count);
  for (std::size_t i = 0; i < cdu_count; ++i) {
    const std::string tag = cdu_tag(i);
    for (const CduChannelDef& def : cdu_channel_defs()) {
      d.cdus[i].*(def.member) = extract_series(cdu, tag, def.name);
    }
  }

  const CsvDocument facility = CsvDocument::load(directory + "/facility.csv");
  for (const FacilityChannelDef& def : facility_channel_defs()) {
    d.facility.*(def.member) = extract_series(facility, kFacilityTag, def.name);
  }
  d.validate();
  return d;
}

}  // namespace exadigit
