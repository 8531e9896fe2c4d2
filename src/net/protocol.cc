#include "net/protocol.h"

#include "common/coding.h"

namespace btrim {
namespace net {

namespace {

/// Bounds-checked read cursor over one payload.
struct Cursor {
  const char* p;
  size_t n;

  bool ReadU8(uint8_t* v) {
    if (n < 1) return false;
    *v = static_cast<uint8_t>(*p);
    p += 1;
    n -= 1;
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (n < 2) return false;
    *v = DecodeFixed16(p);
    p += 2;
    n -= 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (n < 4) return false;
    *v = DecodeFixed32(p);
    p += 4;
    n -= 4;
    return true;
  }
  bool ReadI64(int64_t* v) {
    if (n < 8) return false;
    *v = static_cast<int64_t>(DecodeFixed64(p));
    p += 8;
    n -= 8;
    return true;
  }
  bool ReadString(std::string* v) {
    uint16_t len;
    if (!ReadU16(&len)) return false;
    if (n < len) return false;
    v->assign(p, len);
    p += len;
    n -= len;
    return true;
  }
};

void PutString(std::string* out, const std::string& s) {
  PutFixed16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

void PutI64(std::string* out, int64_t v) {
  PutFixed64(out, static_cast<uint64_t>(v));
}

/// Frames `payload` into `out`.
void AppendFrame(std::string* out, const std::string& payload) {
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

}  // namespace

int OpIndex(uint8_t opcode) {
  switch (static_cast<OpCode>(opcode)) {
    case OpCode::kHello: return 0;
    case OpCode::kPing: return 1;
    case OpCode::kBegin: return 2;
    case OpCode::kCommit: return 3;
    case OpCode::kAbort: return 4;
    case OpCode::kTpcc: return 5;
    case OpCode::kGet: return 6;
    case OpCode::kPut: return 7;
    case OpCode::kScan: return 8;
    case OpCode::kMark: return 9;
  }
  return -1;
}

const char* OpName(OpCode op) {
  switch (op) {
    case OpCode::kHello: return "hello";
    case OpCode::kPing: return "ping";
    case OpCode::kBegin: return "begin";
    case OpCode::kCommit: return "commit";
    case OpCode::kAbort: return "abort";
    case OpCode::kTpcc: return "tpcc";
    case OpCode::kGet: return "get";
    case OpCode::kPut: return "put";
    case OpCode::kScan: return "scan";
    case OpCode::kMark: return "mark";
  }
  return "?";
}

FrameGate TryExtractFrame(const char* data, size_t size, size_t* frame_len,
                          Slice* payload) {
  if (size < kFrameHeaderBytes) return FrameGate::kNeedMore;
  const uint32_t len = DecodeFixed32(data);
  if (len == 0 || len > kMaxFrameBytes) return FrameGate::kTooBig;
  if (size < kFrameHeaderBytes + len) return FrameGate::kNeedMore;
  *frame_len = kFrameHeaderBytes + len;
  *payload = Slice(data + kFrameHeaderBytes, len);
  return FrameGate::kReady;
}

void AppendRequestFrame(std::string* out, const Request& req) {
  std::string p;
  p.push_back(static_cast<char>(req.op));
  switch (req.op) {
    case OpCode::kHello:
      PutFixed32(&p, req.magic);
      PutFixed16(&p, req.version);
      PutString(&p, req.tenant);
      break;
    case OpCode::kPing:
    case OpCode::kBegin:
    case OpCode::kCommit:
    case OpCode::kAbort:
      break;
    case OpCode::kTpcc:
      p.push_back(static_cast<char>(req.txn_type));
      PutFixed32(&p, req.warehouse);
      break;
    case OpCode::kGet:
      PutString(&p, req.table);
      PutI64(&p, req.key);
      break;
    case OpCode::kPut:
      PutString(&p, req.table);
      PutI64(&p, req.key);
      PutString(&p, req.value);
      break;
    case OpCode::kScan:
      PutString(&p, req.table);
      PutI64(&p, req.key);
      PutFixed32(&p, req.limit);
      break;
    case OpCode::kMark:
      PutI64(&p, req.marker);
      break;
  }
  AppendFrame(out, p);
}

void AppendResponseFrame(std::string* out, const Response& resp) {
  std::string p;
  p.push_back(static_cast<char>(resp.op));
  p.push_back(static_cast<char>(resp.code));
  PutString(&p, resp.message);
  if (resp.code == Status::Code::kOk) {
    switch (resp.op) {
      case OpCode::kGet:
        PutString(&p, resp.value);
        break;
      case OpCode::kScan:
        PutFixed32(&p, static_cast<uint32_t>(resp.rows.size()));
        for (const Response::Row& row : resp.rows) {
          PutI64(&p, row.key);
          PutString(&p, row.value);
        }
        break;
      case OpCode::kTpcc:
        p.push_back(resp.committed ? 1 : 0);
        p.push_back(resp.user_abort ? 1 : 0);
        break;
      default:
        break;
    }
  }
  AppendFrame(out, p);
}

void AppendStatusFrame(std::string* out, OpCode op, const Status& status) {
  Response resp;
  resp.op = op;
  resp.code = status.code();
  resp.message = status.message();
  AppendResponseFrame(out, resp);
}

Status ParseRequest(Slice payload, Request* out) {
  Cursor c{payload.data(), payload.size()};
  uint8_t op;
  if (!c.ReadU8(&op)) return Status::InvalidArgument("empty request");
  if (OpIndex(op) < 0) return Status::InvalidArgument("unknown opcode");
  *out = Request();
  out->op = static_cast<OpCode>(op);
  bool ok = true;
  switch (out->op) {
    case OpCode::kHello:
      ok = c.ReadU32(&out->magic) && c.ReadU16(&out->version) &&
           c.ReadString(&out->tenant);
      break;
    case OpCode::kPing:
    case OpCode::kBegin:
    case OpCode::kCommit:
    case OpCode::kAbort:
      break;
    case OpCode::kTpcc:
      ok = c.ReadU8(&out->txn_type) && c.ReadU32(&out->warehouse);
      break;
    case OpCode::kGet:
      ok = c.ReadString(&out->table) && c.ReadI64(&out->key);
      break;
    case OpCode::kPut:
      ok = c.ReadString(&out->table) && c.ReadI64(&out->key) &&
           c.ReadString(&out->value);
      break;
    case OpCode::kScan:
      ok = c.ReadString(&out->table) && c.ReadI64(&out->key) &&
           c.ReadU32(&out->limit);
      break;
    case OpCode::kMark:
      ok = c.ReadI64(&out->marker);
      break;
  }
  if (!ok) return Status::InvalidArgument("truncated request body");
  if (c.n != 0) return Status::InvalidArgument("trailing request bytes");
  return Status::OK();
}

Status ParseResponse(Slice payload, Response* out) {
  Cursor c{payload.data(), payload.size()};
  uint8_t op;
  uint8_t code;
  if (!c.ReadU8(&op) || !c.ReadU8(&code)) {
    return Status::InvalidArgument("truncated response header");
  }
  if (OpIndex(op) < 0) return Status::InvalidArgument("unknown opcode");
  if (code > static_cast<uint8_t>(Status::Code::kShutdown)) {
    return Status::InvalidArgument("unknown status code");
  }
  *out = Response();
  out->op = static_cast<OpCode>(op);
  out->code = static_cast<Status::Code>(code);
  if (!c.ReadString(&out->message)) {
    return Status::InvalidArgument("truncated response message");
  }
  bool ok = true;
  if (out->code == Status::Code::kOk) {
    switch (out->op) {
      case OpCode::kGet:
        ok = c.ReadString(&out->value);
        break;
      case OpCode::kScan: {
        uint32_t count;
        ok = c.ReadU32(&count);
        for (uint32_t i = 0; ok && i < count; ++i) {
          Response::Row row;
          ok = c.ReadI64(&row.key) && c.ReadString(&row.value);
          if (ok) out->rows.push_back(std::move(row));
        }
        break;
      }
      case OpCode::kTpcc: {
        uint8_t committed = 0;
        uint8_t user_abort = 0;
        ok = c.ReadU8(&committed) && c.ReadU8(&user_abort);
        if (ok) {
          out->committed = committed != 0;
          out->user_abort = user_abort != 0;
        }
        break;
      }
      default:
        break;
    }
  }
  if (!ok) return Status::InvalidArgument("truncated response body");
  if (c.n != 0) return Status::InvalidArgument("trailing response bytes");
  return Status::OK();
}

}  // namespace net
}  // namespace btrim
