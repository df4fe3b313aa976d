// On-disk trace format: a fixed 8-byte magic header followed by CRC-framed
// batches of varint-encoded events.
//
//   file  := "XFTLTRC2" frame*
//   frame := 0xF7 | varint(payload_len) | fixed32(crc32c(payload)) | payload
//   event := zigzag(dt) u8(layer) u8(op) varint(tid) varint(sid) varint(a)
//            varint(b) varint(latency) u8(status)
//
// Timestamps are delta-encoded within a frame (the first event of each frame
// carries an absolute time). The delta is zigzag-signed: under the host
// session scheduler the shared clock is rewound at dispatch boundaries so
// device-side waits from different sessions can overlap, which makes event
// timestamps non-monotonic. A steady stream of events still costs ~10 bytes
// each. A torn final frame — short write at process death or power loss —
// fails its CRC or length check and is skipped by the reader, which reports
// it via truncated() instead of failing: everything up to the last complete
// frame is always readable. The reader accepts only this format: a file
// with any other magic fails to open.
#ifndef XFTL_TRACE_TRACE_FILE_H_
#define XFTL_TRACE_TRACE_FILE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace_event.h"

namespace xftl::trace {

inline constexpr char kTraceMagic[8] = {'X', 'F', 'T', 'L',
                                        'T', 'R', 'C', '2'};
inline constexpr uint8_t kFrameMagic = 0xF7;

// Streams events to a file on the host file system (trace files are
// analysis artifacts, not simulated storage). Events are buffered and
// sealed into a frame every `events_per_frame` records or on Flush().
class TraceWriter {
 public:
  static StatusOr<std::unique_ptr<TraceWriter>> Open(
      const std::string& path, uint32_t events_per_frame = 1024);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void Append(const TraceEvent& event);
  // Seals the pending frame and fsyncs the file.
  Status Flush();
  // Flush + close; further Appends are invalid.
  Status Close();

  uint64_t events_written() const { return events_written_; }

 private:
  TraceWriter(std::FILE* file, uint32_t events_per_frame);
  Status SealFrame();

  std::FILE* file_;
  const uint32_t events_per_frame_;
  std::vector<TraceEvent> pending_;
  uint64_t events_written_ = 0;
};

// Reads a trace file sequentially. Decodes one frame at a time; a torn or
// corrupt frame ends iteration with truncated() set.
class TraceReader {
 public:
  static StatusOr<std::unique_ptr<TraceReader>> Open(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  // Fills `event` and returns true, or returns false at end of input
  // (clean EOF or torn tail).
  bool Next(TraceEvent* event);

  // True once iteration stopped at a torn/corrupt frame rather than a clean
  // end of file.
  bool truncated() const { return truncated_; }
  uint64_t events_read() const { return events_read_; }

  // Convenience: reads every event of `path` into a vector.
  static StatusOr<std::vector<TraceEvent>> ReadAll(const std::string& path,
                                                   bool* truncated = nullptr);

 private:
  explicit TraceReader(std::FILE* file);
  // Loads and verifies the next frame into frame_ / decodes into events_.
  bool LoadFrame();

  std::FILE* file_;
  std::vector<TraceEvent> frame_events_;
  size_t next_in_frame_ = 0;
  bool truncated_ = false;
  bool eof_ = false;
  uint64_t events_read_ = 0;
};

}  // namespace xftl::trace

#endif  // XFTL_TRACE_TRACE_FILE_H_
