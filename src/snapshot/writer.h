// SnapshotWriter: encode analyzed per-trace shards into a .esnap file.
//
// A shard process analyzes a contiguous range of a dataset's traces
// (analyze_trace_shards) and hands each TraceShard to add_shard() with its
// global trace index.  close() writes the end marker — a file without one
// (a killed shard process) is rejected by the reader, which is exactly the
// checkpoint semantics entrace_shard's --resume relies on: only complete
// snapshot files count as done work.
//
// Emission is crash-safe: all bytes go to `<path>.tmp`, and close()
// atomically renames it onto `path` after the end marker is flushed.  A
// worker killed at any point therefore leaves either nothing at the
// destination name or a complete, validated snapshot — never a
// destination-named partial that --resume or a supervisor must re-inspect
// (the .tmp may survive a hard kill; it is overwritten by the next
// attempt).  The reader's missing-end-marker rejection stays as the second
// line of defense for files that arrive by other routes.
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "core/analyzer.h"
#include "snapshot/format.h"

namespace entrace::snapshot {

class SnapshotWriter {
 public:
  // Opens the file and writes magic + version + the dataset-meta section.
  // Throws std::runtime_error when the file cannot be created.
  SnapshotWriter(const std::string& path, const SnapshotMeta& meta);

  // Stream-sink mode: encode the same byte stream into `sink` (e.g. an
  // ostringstream) instead of a file.  close() writes the end marker and
  // flushes; there is no tmp/rename because there is no destination path —
  // the cluster worker streams these bytes over TCP, where the DONE
  // message's whole-stream CRC plays the commit-point role the atomic
  // rename plays on disk.  `sink` must outlive the writer.
  SnapshotWriter(std::ostream& sink, const SnapshotMeta& meta);

  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  // Encode one trace shard (all nine per-trace sections).  Shards must be
  // added in ascending trace-index order (the reader enforces the same, so
  // violations fail fast at write time instead of at merge time).
  void add_shard(std::uint32_t trace_index, const TraceShard& shard);

  // Write the end section, flush, and atomically rename the .tmp onto the
  // destination path.  Until then nothing exists at the destination; a
  // .tmp without an end section is (by design) an invalid,
  // resumable-from-scratch partial.
  void close();

  std::uint64_t bytes_written() const { return offset_; }

 private:
  void write_raw(const std::uint8_t* bytes, std::size_t n);
  void write_header(const SnapshotMeta& meta);
  void write_section(SectionType type, const ByteWriter& payload);

  std::string path_;      // empty in stream-sink mode
  std::string tmp_path_;  // empty in stream-sink mode
  std::ofstream out_;     // unopened in stream-sink mode
  std::ostream* sink_ = nullptr;  // &out_ in file mode, the caller's stream otherwise
  std::uint64_t offset_ = 0;
  std::int64_t last_index_ = -1;
  bool closed_ = false;
};

}  // namespace entrace::snapshot
