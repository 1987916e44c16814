// Protocol hardening against a live server: the malformed-frame corpus
// (truncated prefix, oversized length, zero length, garbage payload,
// bad query kind, mid-frame disconnect) must produce a structured error
// or a clean close — never a crash, a hang, or a sanitizer report — and
// the daemon must keep answering afterwards. Runs under the asan preset
// via the `serve` ctest label.
#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "serve/client.hpp"
#include "serve_test_util.hpp"

namespace manytiers::serve {
namespace {

using testing::temp_socket_path;
using testing::tiny_grid;

class ServerTest : public ::testing::Test {
 protected:
  // One server for the whole suite: every test must leave it answering.
  static void SetUpTestSuite() {
    socket_path_ = new std::string(temp_socket_path("server_test"));
    ServerOptions options;
    options.unix_path = *socket_path_;
    options.tcp_port = 0;  // kernel-assigned, exercises the TCP listener
    server_ = new Server(tiny_grid(), options);
    server_->start();
  }
  static void TearDownTestSuite() {
    server_->stop();
    delete server_;
    server_ = nullptr;
    delete socket_path_;
    socket_path_ = nullptr;
  }

  // A raw (non-Client) connection for sending malformed bytes.
  static int raw_connect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path_->c_str(),
                socket_path_->size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
    return fd;
  }

  static Request schedule_request() {
    Request request;
    request.id = 1;
    request.kind = QueryKind::Schedule;
    request.market = "EU ISP/ced/linear";
    request.strategy = "Profit-weighted";
    return request;
  }

  // The liveness probe every corpus test ends with: a fresh connection
  // must still get a correct answer.
  static void expect_server_alive() {
    Client client = Client::connect_unix(*socket_path_);
    const Response response = client.call(schedule_request());
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.tiers.size(), 2u);
  }

  static Server* server_;
  static std::string* socket_path_;
};

Server* ServerTest::server_ = nullptr;
std::string* ServerTest::socket_path_ = nullptr;

TEST_F(ServerTest, AnswersEveryQueryKind) {
  Client client = Client::connect_unix(*socket_path_);

  Request price = schedule_request();
  price.kind = QueryKind::Price;
  price.q = 50.0;
  price.d = 100.0;
  const Response price_response = client.call(price);
  ASSERT_TRUE(price_response.ok) << price_response.error;
  EXPECT_EQ(price_response.epoch, server_->epoch());
  EXPECT_GT(price_response.price, 0.0);

  Request requote = schedule_request();
  requote.kind = QueryKind::Requote;
  requote.flow = 3;
  const Response requote_response = client.call(requote);
  ASSERT_TRUE(requote_response.ok) << requote_response.error;
  EXPECT_GT(requote_response.blended_price, 0.0);

  const Response schedule_response = client.call(schedule_request());
  ASSERT_TRUE(schedule_response.ok) << schedule_response.error;
  EXPECT_EQ(schedule_response.tiers.size(), 2u);
  EXPECT_FALSE(schedule_response.capture_text.empty());
}

TEST_F(ServerTest, TcpListenerAnswersToo) {
  ASSERT_GT(server_->tcp_port(), 0);
  Client client = Client::connect_tcp("127.0.0.1", server_->tcp_port());
  const Response response = client.call(schedule_request());
  ASSERT_TRUE(response.ok) << response.error;
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  Client client = Client::connect_unix(*socket_path_);
  constexpr std::uint64_t kBatch = 64;
  for (std::uint64_t i = 0; i < kBatch; ++i) {
    Request request = schedule_request();
    request.id = 100 + i;
    request.kind = QueryKind::Price;
    request.q = 10.0 + double(i);
    request.d = 50.0;
    client.send(request);
  }
  for (std::uint64_t i = 0; i < kBatch; ++i) {
    const Response response = client.recv();
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.id, 100 + i);
  }
}

TEST_F(ServerTest, StructuredErrorsKeepTheConnectionUsable) {
  Client client = Client::connect_unix(*socket_path_);

  Request bad_market = schedule_request();
  bad_market.market = "no/such/market";
  Response response = client.call(bad_market);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown market"), std::string::npos);

  Request bad_strategy = schedule_request();
  bad_strategy.strategy = "Wishful thinking";
  response = client.call(bad_strategy);
  EXPECT_FALSE(response.ok);

  Request unserved = schedule_request();
  unserved.strategy = "Optimal";  // real strategy, not in the tiny grid
  response = client.call(unserved);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("not served"), std::string::npos);

  Request too_many = schedule_request();
  too_many.bundles = 99;
  response = client.call(too_many);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("exceeds grid max"), std::string::npos);

  Request bad_flow = schedule_request();
  bad_flow.kind = QueryKind::Requote;
  bad_flow.flow = 100000;
  response = client.call(bad_flow);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("out of range"), std::string::npos);

  // After five structured errors the connection still answers.
  response = client.call(schedule_request());
  EXPECT_TRUE(response.ok) << response.error;
}

TEST_F(ServerTest, InfiniteDistanceIsABadRequest) {
  // The codec reads the inf token its writer emits, so a price query can
  // carry d = inf on the wire; the daemon must refuse it instead of
  // quoting a tier.
  Client client = Client::connect_unix(*socket_path_);
  const Response response = parse_response(client.call_raw(
      R"({"id":5,"kind":"price","market":"EU ISP/ced/linear",)"
      R"("strategy":"Profit-weighted","bundles":0,"q":120,"d":inf,"class":0})"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, kCodeBadRequest);
  EXPECT_EQ(response.id, 5u);
}

// --- The malformed-frame corpus ---

TEST_F(ServerTest, GarbagePayloadGetsStructuredError) {
  const int fd = raw_connect();
  write_all(fd, encode_frame("complete garbage, not even json"));
  FrameReader reader(fd);
  std::string payload;
  ASSERT_EQ(reader.next(payload), FrameReader::Status::Frame);
  const Response response = parse_response(payload);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
  ::close(fd);
  expect_server_alive();
}

TEST_F(ServerTest, BadQueryKindGetsStructuredError) {
  const int fd = raw_connect();
  write_all(fd, encode_frame("{\"id\":9,\"kind\":\"frobnicate\"}"));
  FrameReader reader(fd);
  std::string payload;
  ASSERT_EQ(reader.next(payload), FrameReader::Status::Frame);
  const Response response = parse_response(payload);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown query kind"), std::string::npos);
  ::close(fd);
  expect_server_alive();
}

TEST_F(ServerTest, TruncatedLengthPrefixDisconnect) {
  const int fd = raw_connect();
  write_all(fd, std::string_view("\x09\x00", 2));  // 2 of 4 prefix bytes
  ::close(fd);
  expect_server_alive();
}

TEST_F(ServerTest, MidFrameDisconnect) {
  const int fd = raw_connect();
  std::string torn = encode_frame(serialize_request(schedule_request()));
  torn.resize(torn.size() / 2);
  write_all(fd, torn);
  ::close(fd);
  expect_server_alive();
}

TEST_F(ServerTest, OversizedLengthGetsErrorThenClose) {
  const int fd = raw_connect();
  const std::uint32_t huge = 0xfffffffe;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  write_all(fd, std::string_view(prefix, 4));
  // The server answers with a structured framing error, then hangs up.
  FrameReader reader(fd);
  std::string payload;
  ASSERT_EQ(reader.next(payload), FrameReader::Status::Frame);
  const Response response = parse_response(payload);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("frame length"), std::string::npos);
  EXPECT_EQ(reader.next(payload), FrameReader::Status::Eof);
  ::close(fd);
  expect_server_alive();
}

TEST_F(ServerTest, ZeroLengthGetsErrorThenClose) {
  const int fd = raw_connect();
  write_all(fd, std::string_view("\x00\x00\x00\x00", 4));
  FrameReader reader(fd);
  std::string payload;
  ASSERT_EQ(reader.next(payload), FrameReader::Status::Frame);
  EXPECT_FALSE(parse_response(payload).ok);
  EXPECT_EQ(reader.next(payload), FrameReader::Status::Eof);
  ::close(fd);
  expect_server_alive();
}

TEST_F(ServerTest, AbruptDisconnectStorm) {
  // A burst of connects that vanish at every protocol stage. The server
  // must survive all of them and keep answering.
  for (int i = 0; i < 20; ++i) {
    const int fd = raw_connect();
    switch (i % 4) {
      case 0:  // connect and vanish
        break;
      case 1:  // torn prefix
        write_all(fd, std::string_view("\xff", 1));
        break;
      case 2:  // mid-frame
        write_all(fd, std::string_view("\x40\x00\x00\x00partial", 11));
        break;
      case 3:  // a full valid frame, then vanish without reading
        write_all(fd, encode_frame(serialize_request(schedule_request())));
        break;
    }
    ::close(fd);
  }
  expect_server_alive();
}

TEST(ServerLifecycle, StartStopIsCleanAndIdempotent) {
  const std::string path = temp_socket_path("lifecycle");
  ServerOptions options;
  options.unix_path = path;
  Server server(tiny_grid(), options);
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request request;
    request.kind = QueryKind::Schedule;
    request.market = "EU ISP/ced/linear";
    request.strategy = "Profit-weighted";
    ASSERT_TRUE(client.call(request).ok);
  }
  server.stop();
  server.stop();  // idempotent
  // The socket file is gone; connecting must fail.
  EXPECT_THROW(Client::connect_unix(path), std::system_error);
}

TEST(ServerLifecycle, StopWithLiveConnectionUnblocks) {
  const std::string path = temp_socket_path("liveconn");
  ServerOptions options;
  options.unix_path = path;
  Server server(tiny_grid(), options);
  server.start();
  Client client = Client::connect_unix(path);  // idle connection
  server.stop();  // must not hang on the idle reader
}

}  // namespace
}  // namespace manytiers::serve
