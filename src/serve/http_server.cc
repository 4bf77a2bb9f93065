#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace mlp {
namespace serve {

namespace {

// Bounds on what one request may occupy before the connection is dropped —
// the server fronts a read model, not a file upload endpoint.
constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 8 * 1024 * 1024;
// An idle keep-alive connection may pin a pool worker for at most this
// long before the read times out and the connection closes.
constexpr int kReadTimeoutSeconds = 5;

void SetReadTimeout(int fd, int seconds) {
  struct timeval tv;
  tv.tv_sec = seconds;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::string AsciiLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
  }
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  size_t e = s.find_last_not_of(" \t\r");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/// Splits raw header block lines and extracts the two headers the server
/// cares about. Returns false on a malformed block.
struct ParsedHeaders {
  size_t content_length = 0;
  bool has_connection = false;
  std::string connection;  // lower-cased value
};

bool ParseHeaderLines(const std::string& block, size_t begin, size_t end,
                      ParsedHeaders* out) {
  size_t pos = begin;
  while (pos < end) {
    size_t eol = block.find("\r\n", pos);
    if (eol == std::string::npos || eol > end) eol = end;
    std::string line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) return false;
    std::string name = AsciiLower(Trim(line.substr(0, colon)));
    std::string value = Trim(line.substr(colon + 1));
    if (name == "content-length") {
      char* endp = nullptr;
      unsigned long long n = std::strtoull(value.c_str(), &endp, 10);
      if (endp == value.c_str() || n > kMaxBodyBytes) return false;
      out->content_length = static_cast<size_t>(n);
    } else if (name == "connection") {
      out->has_connection = true;
      out->connection = AsciiLower(value);
    }
  }
  return true;
}

/// Blocking read of more bytes into `*buffer`; false on EOF/error/timeout.
bool ReadMore(int fd, std::string* buffer) {
  char chunk[8192];
  ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer->append(chunk, static_cast<size_t>(n));
  return true;
}

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    default:
      return "Unknown";
  }
}

}  // namespace

HttpServer::HttpServer(engine::ThreadPool* pool) : pool_(pool) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(int port, HttpHandler handler,
                         HttpCompletionHook on_complete) {
  if (running_.load()) return Status::FailedPrecondition("already started");
  handler_ = std::move(handler);
  on_complete_ = std::move(on_complete);

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status s = Status::IOError(StringPrintf("bind to port %d: %s", port,
                                            std::strerror(errno)));
    ::close(listen_fd);
    return s;
  }
  if (::listen(listen_fd, 128) != 0) {
    Status s = Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  // Published only once fully set up; AcceptLoop and Stop() race on this
  // fd by design (Stop closes it to wake accept), so it lives in an
  // atomic and Stop claims it with exchange.
  listen_fd_.store(listen_fd);
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  static obs::Counter* const connections_total =
      obs::Registry::Global().GetCounter(kServeConnectionsTotal);
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed or unrecoverable
    }
    connections_total->Add(1);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetReadTimeout(fd, kReadTimeoutSeconds);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        continue;
      }
      open_fds_.insert(fd);
      ++active_connections_;
    }
    bool submitted = pool_->Submit([this, fd] { ServeConnection(fd); });
    if (!submitted) {
      std::lock_guard<std::mutex> lock(mu_);
      open_fds_.erase(fd);
      --active_connections_;
      ::close(fd);
      idle_cv_.notify_all();
    }
  }
}

bool HttpServer::ReadRequest(int fd, std::string* buffer,
                             HttpRequest* request, int64_t* first_byte_ns) {
  // Pipelined leftovers in the carry-over buffer count as "first byte now";
  // otherwise the stamp is taken right after the first successful read, so
  // keep-alive idle time never leaks into the parse stage.
  *first_byte_ns = buffer->empty() ? 0 : obs::NowNs();
  // Accumulate until the blank line ending the header block.
  size_t header_end;
  while ((header_end = buffer->find("\r\n\r\n")) == std::string::npos) {
    if (buffer->size() > kMaxHeaderBytes) return false;
    if (!ReadMore(fd, buffer)) return false;
    if (*first_byte_ns == 0) *first_byte_ns = obs::NowNs();
  }

  size_t line_end = buffer->find("\r\n");
  std::string request_line = buffer->substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return false;
  request->method = request_line.substr(0, sp1);
  request->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string version = request_line.substr(sp2 + 1);
  if (request->method.empty() || request->target.empty() ||
      request->target[0] != '/') {
    return false;
  }

  ParsedHeaders headers;
  if (!ParseHeaderLines(*buffer, line_end + 2, header_end, &headers)) {
    return false;
  }
  // HTTP/1.1 defaults to keep-alive; 1.0 to close.
  request->keep_alive = version == "HTTP/1.1";
  if (headers.has_connection) {
    request->keep_alive = headers.connection != "close";
  }

  const size_t body_begin = header_end + 4;
  while (buffer->size() - body_begin < headers.content_length) {
    if (!ReadMore(fd, buffer)) return false;
  }
  request->body = buffer->substr(body_begin, headers.content_length);
  buffer->erase(0, body_begin + headers.content_length);
  return true;
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  while (!stopping_.load()) {
    HttpRequest request;
    int64_t first_byte_ns = 0;
    if (!ReadRequest(fd, &buffer, &request, &first_byte_ns)) break;
    obs::RequestTrace trace;
    trace.RebaseStart(first_byte_ns);
    if (first_byte_ns > 0) {
      const int64_t parsed_ns = obs::NowNs();
      trace.AddStageNs(obs::RequestStage::kParse, parsed_ns - first_byte_ns);
    }
    HttpResponse response = handler_(request, &trace);
    const bool keep_alive = request.keep_alive && !stopping_.load();
    std::string out = StringPrintf(
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %zu\r\n"
        "Connection: %s\r\n"
        "\r\n",
        response.status, StatusText(response.status),
        response.content_type.c_str(), response.body.size(),
        keep_alive ? "keep-alive" : "close");
    out += response.body;
    const int64_t write_start_ns = obs::NowNs();
    const bool write_ok = WriteAll(fd, out);
    if (write_start_ns > 0) {
      trace.AddStageNs(obs::RequestStage::kWrite,
                       obs::NowNs() - write_start_ns);
    }
    trace.set_status(response.status);
    trace.Finish();
    if (on_complete_) on_complete_(request, response, trace);
    if (!write_ok) break;
    if (!keep_alive) break;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_fds_.erase(fd);
    --active_connections_;
  }
  ::close(fd);
  idle_cv_.notify_all();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Claim the listener exactly once: shutdown() wakes the blocked
  // accept(), and AcceptLoop only ever sees the fd value, never a
  // half-written one (the TSan-clean handshake for the close-to-wake
  // idiom).
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unique_lock<std::mutex> lock(mu_);
  // Wake every connection blocked in recv; ServeConnection owns the close.
  for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  idle_cv_.wait(lock, [this] { return active_connections_ == 0; });
}

// ------------------------------------------------------------- HttpClient

namespace {

/// Reads one full HTTP response off `fd`, using `*buffer` for carry-over.
Result<HttpResponse> ReadResponse(int fd, std::string* buffer) {
  size_t header_end;
  while ((header_end = buffer->find("\r\n\r\n")) == std::string::npos) {
    if (buffer->size() > kMaxHeaderBytes) {
      return Status::IOError("response headers too large");
    }
    if (!ReadMore(fd, buffer)) {
      return Status::IOError("connection closed mid-response");
    }
  }
  size_t line_end = buffer->find("\r\n");
  std::string status_line = buffer->substr(0, line_end);
  // "HTTP/1.1 200 OK"
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return Status::IOError("bad status line");
  HttpResponse response;
  response.status = std::atoi(status_line.c_str() + sp + 1);

  ParsedHeaders headers;
  if (!ParseHeaderLines(*buffer, line_end + 2, header_end, &headers)) {
    return Status::IOError("bad response headers");
  }
  const size_t body_begin = header_end + 4;
  while (buffer->size() - body_begin < headers.content_length) {
    if (!ReadMore(fd, buffer)) {
      return Status::IOError("connection closed mid-body");
    }
  }
  response.body = buffer->substr(body_begin, headers.content_length);
  buffer->erase(0, body_begin + headers.content_length);
  return response;
}

}  // namespace

Result<HttpClient> HttpClient::Connect(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status s = Status::IOError(StringPrintf("connect %s:%d: %s", host.c_str(),
                                            port, std::strerror(errno)));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetReadTimeout(fd, 10);
  return HttpClient(fd);
}

HttpClient::HttpClient(HttpClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<HttpResponse> HttpClient::RoundTrip(const std::string& method,
                                           const std::string& target,
                                           const std::string& body) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  std::string request = StringPrintf(
      "%s %s HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Content-Length: %zu\r\n"
      "\r\n",
      method.c_str(), target.c_str(), body.size());
  request += body;
  if (!WriteAll(fd_, request)) {
    return Status::IOError("write failed (server closed?)");
  }
  return ReadResponse(fd_, &buffer_);
}

Result<HttpResponse> HttpFetch(const std::string& host, int port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body) {
  Result<HttpClient> client = HttpClient::Connect(host, port);
  if (!client.ok()) return client.status();
  return client->RoundTrip(method, target, body);
}

}  // namespace serve
}  // namespace mlp
