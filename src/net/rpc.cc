#include "net/rpc.h"

#include <utility>

namespace gordian {

namespace {

// Counts one frame received or sent, with its framed size (header +
// payload).
void CountFrame(ServiceMetrics* metrics, bool received, const Frame& frame) {
  Add(metrics, received ? Counter::kRpcsIn : Counter::kRpcsOut);
  Add(metrics, received ? Counter::kRpcBytesIn : Counter::kRpcBytesOut,
      static_cast<int64_t>(kFrameHeaderBytes + frame.payload.size()));
}

std::chrono::steady_clock::time_point DeadlineFrom(uint32_t millis) {
  if (millis == 0) return std::chrono::steady_clock::time_point::max();
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(millis);
}

}  // namespace

Status RpcServer::Start(Handler handler) {
  handler_ = std::move(handler);
  Status s = listener_.Listen(options_.port);
  if (!s.ok()) return s;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::AcceptLoop() {
  for (;;) {
    std::unique_ptr<ByteStream> stream;
    Status s = listener_.Accept(&stream);
    if (!s.ok()) return;  // listener closed: shutting down
    ByteStream* raw = stream.get();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      stream->Close();
      return;
    }
    connections_.push_back(std::move(stream));
    threads_.emplace_back([this, raw] { ServeConnection(raw); });
  }
}

void RpcServer::ServeConnection(ByteStream* stream) {
  for (;;) {
    Frame request;
    Status s = ReadFrame(*stream, &request);
    if (!s.ok()) break;  // hang-up, torn frame, or garbage: drop the conn
    if (request.type != FrameType::kRequest) break;  // protocol violation
    CountFrame(options_.metrics, /*received=*/true, request);
    Frame response;
    response.type = FrameType::kResponse;
    response.request_id = request.request_id;
    response.method = request.method;
    handler_(request, &response);
    CountFrame(options_.metrics, /*received=*/false, response);
    if (!WriteFrame(*stream, response).ok()) break;
  }
  stream->Close();
}

void RpcServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // With the accept thread gone no new connections appear; close the live
  // ones to kick their threads out of blocked reads, then join.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : connections_) conn->Close();
  }
  for (std::thread& t : threads_) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  threads_.clear();
  connections_.clear();
}

Status RpcClient::Call(RpcMethod method, const std::string& payload,
                       uint32_t deadline_millis, RpcReply* reply) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto deadline = DeadlineFrom(deadline_millis);
  if (stream_ == nullptr) {
    Status s = TcpConnect(
        host_, port_,
        deadline_millis == 0 ? std::chrono::milliseconds(0)
                             : std::chrono::milliseconds(deadline_millis),
        &stream_);
    if (!s.ok()) {
      stream_.reset();
      return s;
    }
  }
  stream_->SetDeadline(deadline);

  Frame request;
  request.type = FrameType::kRequest;
  request.method = method;
  request.request_id = next_request_id_++;
  request.deadline_millis = deadline_millis;
  request.payload = payload;

  Status s = WriteFrame(*stream_, request);
  if (s.ok()) {
    CountFrame(metrics_, /*received=*/false, request);
    Frame response;
    s = ReadFrame(*stream_, &response);
    if (s.ok()) {
      CountFrame(metrics_, /*received=*/true, response);
      if (response.type != FrameType::kResponse ||
          response.request_id != request.request_id) {
        s = Status::IOError("response does not match request");
      } else {
        reply->retry_after_millis = response.deadline_millis;
        if (response.status_code == Status::Code::kOk) {
          reply->remote = Status::OK();
          reply->payload = std::move(response.payload);
        } else {
          // Error responses carry the message as their payload; rebuild the
          // peer's Status from code + text.
          const std::string& msg = response.payload;
          switch (response.status_code) {
            case Status::Code::kInvalidArgument:
              reply->remote = Status::InvalidArgument(msg);
              break;
            case Status::Code::kNotFound:
              reply->remote = Status::NotFound(msg);
              break;
            case Status::Code::kOutOfRange:
              reply->remote = Status::OutOfRange(msg);
              break;
            case Status::Code::kUnsupported:
              reply->remote = Status::Unsupported(msg);
              break;
            case Status::Code::kPartial:
              reply->remote = Status::Partial(msg);
              break;
            case Status::Code::kUnavailable:
              reply->remote = Status::Unavailable(msg);
              break;
            case Status::Code::kDeadlineExceeded:
              reply->remote = Status::DeadlineExceeded(msg);
              break;
            default:
              reply->remote = Status::IOError(msg);
              break;
          }
          reply->payload.clear();
        }
        return Status::OK();
      }
    } else if (s.code() == Status::Code::kNotFound) {
      // Clean hang-up while awaiting the response: the peer died between
      // our frames. For the caller that is a transport failure.
      s = Status::IOError("connection closed awaiting response");
    }
  }
  stream_->Close();
  stream_.reset();
  return s;
}

void RpcClient::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_ != nullptr) {
    stream_->Close();
    stream_.reset();
  }
}

}  // namespace gordian
