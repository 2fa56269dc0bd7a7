#include "net/frame.h"

#include <string_view>

#include "common/byte_codec.h"

namespace gordian {

namespace {

constexpr std::string_view kMagic = "GRDN";

}  // namespace

uint8_t StatusCodeToWire(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return 0;
    case Status::Code::kInvalidArgument: return 1;
    case Status::Code::kNotFound: return 2;
    case Status::Code::kIOError: return 3;
    case Status::Code::kOutOfRange: return 4;
    case Status::Code::kUnsupported: return 5;
    case Status::Code::kPartial: return 6;
    case Status::Code::kUnavailable: return 7;
    case Status::Code::kDeadlineExceeded: return 8;
  }
  return 3;  // unreachable; map to kIOError
}

Status::Code StatusCodeFromWire(uint8_t wire) {
  switch (wire) {
    case 0: return Status::Code::kOk;
    case 1: return Status::Code::kInvalidArgument;
    case 2: return Status::Code::kNotFound;
    case 3: return Status::Code::kIOError;
    case 4: return Status::Code::kOutOfRange;
    case 5: return Status::Code::kUnsupported;
    case 6: return Status::Code::kPartial;
    case 7: return Status::Code::kUnavailable;
    case 8: return Status::Code::kDeadlineExceeded;
    default: return Status::Code::kIOError;
  }
}

Status WriteFrame(ByteStream& stream, const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte limit");
  }
  std::string wire;
  wire.reserve(kFrameHeaderBytes + frame.payload.size());
  ByteWriter w(&wire);
  w.Raw(kMagic);
  w.U32(static_cast<uint32_t>(frame.payload.size()));
  w.U64(frame.request_id);
  w.U8(static_cast<uint8_t>(frame.type));
  w.U8(static_cast<uint8_t>(frame.method));
  w.U8(StatusCodeToWire(frame.status_code));
  w.U8(0);  // reserved
  w.U32(frame.deadline_millis);
  w.Raw(frame.payload);
  return stream.Write(wire.data(), wire.size());
}

Status ReadFrame(ByteStream& stream, Frame* frame) {
  char header[kFrameHeaderBytes];
  Status s = ReadExact(stream, header, sizeof(header));
  if (!s.ok()) return s;  // NotFound between frames, IOError mid-header
  ByteReader r(std::string_view(header, sizeof(header)));
  if (!r.Magic(kMagic)) return Status::InvalidArgument("bad frame magic");
  uint32_t payload_len;
  uint8_t type, method, status, reserved;
  if (!r.U32(&payload_len) || !r.U64(&frame->request_id) || !r.U8(&type) ||
      !r.U8(&method) || !r.U8(&status) || !r.U8(&reserved) ||
      !r.U32(&frame->deadline_millis)) {
    return Status::IOError("short frame header");
  }
  if (payload_len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame length " + std::to_string(payload_len) + " exceeds the " +
        std::to_string(kMaxFramePayload) + "-byte limit");
  }
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  frame->type = static_cast<FrameType>(type);
  if (method != static_cast<uint8_t>(RpcMethod::kProfile) &&
      method != static_cast<uint8_t>(RpcMethod::kHealth)) {
    return Status::InvalidArgument("unknown rpc method " +
                                   std::to_string(method));
  }
  frame->method = static_cast<RpcMethod>(method);
  frame->status_code = StatusCodeFromWire(status);
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved frame byte");
  }
  frame->payload.resize(payload_len);
  if (payload_len > 0) {
    s = ReadExact(stream, frame->payload.data(), payload_len);
    if (!s.ok()) {
      // A clean hang-up mid-payload is still a torn frame, not an
      // end-of-stream the caller should tolerate.
      if (s.code() == Status::Code::kNotFound) {
        return Status::IOError("stream ended mid-frame");
      }
      return s;
    }
  }
  return Status::OK();
}

}  // namespace gordian
