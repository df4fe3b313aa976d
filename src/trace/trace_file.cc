#include "trace/trace_file.h"

#include <memory>

#include "common/coding.h"
#include "common/crc32.h"

namespace xftl::trace {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSql:   return "sql";
    case Layer::kFs:    return "fs";
    case Layer::kSata:  return "sata";
    case Layer::kXftl:  return "xftl";
    case Layer::kFtl:   return "ftl";
    case Layer::kFlash: return "flash";
    case Layer::kHost:  return "host";
  }
  return "?";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kRead:       return "read";
    case Op::kWrite:      return "write";
    case Op::kTrim:       return "trim";
    case Op::kFlush:      return "flush";
    case Op::kTxRead:     return "tx-read";
    case Op::kTxWrite:    return "tx-write";
    case Op::kTxCommit:   return "tx-commit";
    case Op::kTxAbort:    return "tx-abort";
    case Op::kFsync:      return "fsync";
    case Op::kBegin:      return "begin";
    case Op::kCommit:     return "commit";
    case Op::kRollback:   return "rollback";
    case Op::kCheckpoint: return "checkpoint";
    case Op::kGc:         return "gc";
    case Op::kErase:      return "erase";
    case Op::kRecover:    return "recover";
    case Op::kLinkFault:  return "link-fault";
    case Op::kLinkReset:  return "link-reset";
    case Op::kDegrade:    return "degrade";
    case Op::kTxn:        return "txn";
    case Op::kTxPrepare:  return "tx-prepare";
    case Op::kCommitRecord: return "commit-record";
    case Op::kResolve:    return "resolve";
    case Op::kMemberFault: return "member-fault";
    case Op::kBarrier:    return "barrier";
    case Op::kSnapPin:    return "snap-pin";
    case Op::kSnapUnpin:  return "snap-unpin";
    case Op::kSnapRead:   return "snap-read";
    case Op::kSnapDefer:  return "snap-defer";
    case Op::kRecoverBlocks: return "recover-blocks";
  }
  return "?";
}

// --- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter(std::FILE* file, uint32_t events_per_frame)
    : file_(file), events_per_frame_(events_per_frame) {
  pending_.reserve(events_per_frame_);
}

StatusOr<std::unique_ptr<TraceWriter>> TraceWriter::Open(
    const std::string& path, uint32_t events_per_frame) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create trace file " + path);
  }
  if (std::fwrite(kTraceMagic, 1, sizeof(kTraceMagic), f) !=
      sizeof(kTraceMagic)) {
    std::fclose(f);
    return Status::IoError("cannot write trace header to " + path);
  }
  return std::unique_ptr<TraceWriter>(
      new TraceWriter(f, events_per_frame == 0 ? 1 : events_per_frame));
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) (void)Close();
}

void TraceWriter::Append(const TraceEvent& event) {
  pending_.push_back(event);
  events_written_++;
  if (pending_.size() >= events_per_frame_) (void)SealFrame();
}

Status TraceWriter::SealFrame() {
  if (pending_.empty()) return Status::OK();
  if (file_ == nullptr) return Status::FailedPrecondition("writer closed");
  std::vector<uint8_t> payload;
  payload.reserve(pending_.size() * 12);
  SimNanos prev_time = 0;
  bool first = true;
  for (const TraceEvent& e : pending_) {
    // First event of the frame carries an absolute timestamp. Deltas are
    // zigzag-signed: scheduler clock rewinds make timestamps non-monotonic.
    int64_t dt = first ? int64_t(e.time) : int64_t(e.time) - int64_t(prev_time);
    first = false;
    prev_time = e.time;
    PutSignedVarint64(&payload, dt);
    payload.push_back(uint8_t(e.layer));
    payload.push_back(uint8_t(e.op));
    PutVarint64(&payload, e.tid);
    PutVarint64(&payload, e.sid);
    PutVarint64(&payload, e.a);
    PutVarint64(&payload, e.b);
    PutVarint64(&payload, e.latency);
    payload.push_back(uint8_t(e.status));
  }
  pending_.clear();

  std::vector<uint8_t> header;
  header.push_back(kFrameMagic);
  PutVarint64(&header, payload.size());
  uint8_t crc_buf[4];
  EncodeFixed32(crc_buf, Crc32c(payload.data(), payload.size()));
  header.insert(header.end(), crc_buf, crc_buf + 4);

  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return Status::IoError("short write to trace file");
  }
  return Status::OK();
}

Status TraceWriter::Flush() {
  XFTL_RETURN_IF_ERROR(SealFrame());
  if (file_ != nullptr && std::fflush(file_) != 0) {
    return Status::IoError("fflush failed on trace file");
  }
  return Status::OK();
}

Status TraceWriter::Close() {
  Status s = Flush();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  return s;
}

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(std::FILE* file) : file_(file) {}

TraceReader::~TraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<std::unique_ptr<TraceReader>> TraceReader::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open trace file " + path);
  char magic[sizeof(kTraceMagic)];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
    std::fclose(f);
    return Status::Corruption(path + " is not a trace file (bad magic)");
  }
  return std::unique_ptr<TraceReader>(new TraceReader(f));
}

bool TraceReader::LoadFrame() {
  frame_events_.clear();
  next_in_frame_ = 0;
  if (eof_ || truncated_) return false;

  int magic = std::fgetc(file_);
  if (magic == EOF) {
    eof_ = true;
    return false;
  }
  if (uint8_t(magic) != kFrameMagic) {
    truncated_ = true;
    return false;
  }
  // Frame length varint, read byte-wise.
  uint64_t len = 0;
  uint32_t shift = 0;
  while (true) {
    int c = std::fgetc(file_);
    if (c == EOF || shift >= 70) {
      truncated_ = true;
      return false;
    }
    len |= uint64_t(c & 0x7f) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
  }
  uint8_t crc_buf[4];
  if (std::fread(crc_buf, 1, 4, file_) != 4) {
    truncated_ = true;
    return false;
  }
  std::vector<uint8_t> payload(len);
  if (len > 0 && std::fread(payload.data(), 1, len, file_) != len) {
    truncated_ = true;
    return false;
  }
  if (Crc32c(payload.data(), payload.size()) != DecodeFixed32(crc_buf)) {
    truncated_ = true;
    return false;
  }

  const uint8_t* p = payload.data();
  const uint8_t* limit = p + payload.size();
  SimNanos prev_time = 0;
  bool first = true;
  while (p < limit) {
    TraceEvent e;
    int64_t dt = 0;
    uint64_t tid = 0, sid = 0;
    p = GetSignedVarint64(p, limit, &dt);
    if (p == nullptr || limit - p < 2) { truncated_ = true; return false; }
    e.layer = Layer(*p++);
    e.op = Op(*p++);
    p = GetVarint64(p, limit, &tid);
    if (p == nullptr) { truncated_ = true; return false; }
    p = GetVarint64(p, limit, &sid);
    if (p == nullptr) { truncated_ = true; return false; }
    p = GetVarint64(p, limit, &e.a);
    if (p == nullptr) { truncated_ = true; return false; }
    p = GetVarint64(p, limit, &e.b);
    if (p == nullptr) { truncated_ = true; return false; }
    uint64_t latency = 0;
    p = GetVarint64(p, limit, &latency);
    if (p == nullptr || p >= limit) { truncated_ = true; return false; }
    e.status = StatusCode(*p++);
    e.tid = uint32_t(tid);
    e.sid = uint32_t(sid);
    e.latency = SimNanos(latency);
    e.time = first ? SimNanos(dt) : SimNanos(int64_t(prev_time) + dt);
    first = false;
    prev_time = e.time;
    frame_events_.push_back(e);
  }
  return !frame_events_.empty();
}

bool TraceReader::Next(TraceEvent* event) {
  if (next_in_frame_ >= frame_events_.size() && !LoadFrame()) return false;
  *event = frame_events_[next_in_frame_++];
  events_read_++;
  return true;
}

StatusOr<std::vector<TraceEvent>> TraceReader::ReadAll(const std::string& path,
                                                       bool* truncated) {
  XFTL_ASSIGN_OR_RETURN(auto reader, Open(path));
  std::vector<TraceEvent> events;
  TraceEvent e;
  while (reader->Next(&e)) events.push_back(e);
  if (truncated != nullptr) *truncated = reader->truncated();
  return events;
}

}  // namespace xftl::trace
