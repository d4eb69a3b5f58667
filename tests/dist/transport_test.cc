// Transport tests: the in-process pair and the TCP loopback transport must
// deliver framed messages in order, surface peer closes as clean
// ClosedError-style statuses, and move large frames intact.

#include "frapp/dist/transport.h"

#include <gtest/gtest.h>

#include <thread>

namespace frapp {
namespace dist {
namespace {

Message Ping(uint8_t fill, size_t size) {
  return Message{MessageType::kCountResponse,
                 std::vector<uint8_t>(size, fill)};
}

TEST(InProcessTransportTest, DeliversInOrder) {
  auto [a, b] = CreateInProcessTransportPair();
  ASSERT_TRUE(a->Send(Ping(1, 4)).ok());
  ASSERT_TRUE(a->Send(Ping(2, 8)).ok());

  StatusOr<Message> first = b->Receive();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->payload, std::vector<uint8_t>(4, 1));
  StatusOr<Message> second = b->Receive();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->payload, std::vector<uint8_t>(8, 2));
}

TEST(InProcessTransportTest, IsBidirectional) {
  auto [a, b] = CreateInProcessTransportPair();
  ASSERT_TRUE(a->Send(Ping(1, 1)).ok());
  ASSERT_TRUE(b->Send(Ping(2, 2)).ok());
  EXPECT_TRUE(b->Receive().ok());
  EXPECT_TRUE(a->Receive().ok());
}

TEST(InProcessTransportTest, CloseUnblocksReceiver) {
  auto [a, b] = CreateInProcessTransportPair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Close();
  });
  const StatusOr<Message> received = b->Receive();
  closer.join();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InProcessTransportTest, DrainsQueuedMessagesAfterClose) {
  auto [a, b] = CreateInProcessTransportPair();
  ASSERT_TRUE(a->Send(Ping(9, 3)).ok());
  a->Close();
  // The message sent before the close must still arrive (TCP delivers
  // buffered bytes before EOF; the in-process pair matches).
  StatusOr<Message> received = b->Receive();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->payload, std::vector<uint8_t>(3, 9));
  EXPECT_FALSE(b->Receive().ok());
}

TEST(InProcessTransportTest, SendAfterCloseFails) {
  auto [a, b] = CreateInProcessTransportPair();
  b->Close();
  EXPECT_FALSE(a->Send(Ping(1, 1)).ok());
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::make_unique<TcpListener>(*std::move(listener));

    std::thread accepter([this] {
      StatusOr<std::unique_ptr<Transport>> accepted = listener_->Accept();
      if (accepted.ok()) server_ = *std::move(accepted);
    });
    StatusOr<std::unique_ptr<Transport>> connected =
        TcpConnect("127.0.0.1", listener_->port());
    accepter.join();
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    client_ = *std::move(connected);
    ASSERT_NE(server_, nullptr);
  }

  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<Transport> client_;
  std::unique_ptr<Transport> server_;
};

TEST_F(TcpTransportTest, RoundTripsOverLoopback) {
  ASSERT_TRUE(client_->Send(Ping(5, 100)).ok());
  StatusOr<Message> received = server_->Receive();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->type, MessageType::kCountResponse);
  EXPECT_EQ(received->payload, std::vector<uint8_t>(100, 5));

  ASSERT_TRUE(server_->Send(Ping(6, 10)).ok());
  received = client_->Receive();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->payload, std::vector<uint8_t>(10, 6));
}

TEST_F(TcpTransportTest, MovesMultiMegabyteFramesIntact) {
  // Bigger than any socket buffer: exercises the partial-write/read loops.
  std::vector<uint8_t> payload(8 << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  std::thread sender([this, &payload] {
    (void)client_->Send(Message{MessageType::kCountResponse, payload});
  });
  StatusOr<Message> received = server_->Receive();
  sender.join();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->payload, payload);
}

TEST_F(TcpTransportTest, PeerCloseReadsAsClosedConnection) {
  client_->Close();
  const StatusOr<Message> received = server_->Receive();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TcpListenerTest, EphemeralPortIsReported) {
  StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener->port(), 0);
}

TEST(TcpConnectTest, RefusedConnectionFails) {
  // Bind-then-close leaves a port that refuses connections.
  StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  listener->Close();
  EXPECT_FALSE(TcpConnect("127.0.0.1", port).ok());
}

TEST(InProcessTransportTest, ReceiveDeadlineTripsAndThenResumes) {
  auto [a, b] = CreateInProcessTransportPair();
  b->SetReceiveTimeoutMillis(30);
  const StatusOr<Message> timed_out = b->Receive();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  // A deadline is NOT a failure of the connection: the next receive on the
  // same transport must deliver normally.
  ASSERT_TRUE(a->Send(Ping(3, 5)).ok());
  const StatusOr<Message> received = b->Receive();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->payload, std::vector<uint8_t>(5, 3));
}

TEST_F(TcpTransportTest, ReceiveDeadlineTripsAndThenResumes) {
  server_->SetReceiveTimeoutMillis(30);
  const StatusOr<Message> timed_out = server_->Receive();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  ASSERT_TRUE(client_->Send(Ping(4, 16)).ok());
  StatusOr<Message> received = server_->Receive();
  // The frame may land after one more expired wait on a slow machine;
  // deadline-retrying on the SAME connection must eventually deliver it
  // intact — that is the resumable-receive contract the coordinator's
  // retry loop relies on.
  for (int spins = 0; !received.ok() &&
       received.status().code() == StatusCode::kDeadlineExceeded &&
       spins < 100; ++spins) {
    received = server_->Receive();
  }
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->payload, std::vector<uint8_t>(16, 4));
}

TEST_F(TcpTransportTest, DeadlineMidFrameNeverDesyncsTheStream) {
  // A multi-megabyte frame against a 1 ms receive deadline: the receiver
  // trips mid-frame (partial bytes buffered), and every retried receive
  // must RESUME the same frame, never re-parse from the middle. The frame
  // must arrive bit-intact, followed in order by a second frame.
  std::vector<uint8_t> payload(8 << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  std::thread sender([this, &payload] {
    (void)client_->Send(Message{MessageType::kCountResponse, payload});
    (void)client_->Send(Ping(9, 3));
  });

  server_->SetReceiveTimeoutMillis(1);
  StatusOr<Message> received = server_->Receive();
  size_t deadline_trips = 0;
  while (!received.ok() &&
         received.status().code() == StatusCode::kDeadlineExceeded) {
    ++deadline_trips;
    ASSERT_LT(deadline_trips, 100000u);
    received = server_->Receive();
  }
  sender.join();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->payload, payload);

  server_->SetReceiveTimeoutMillis(0);
  const StatusOr<Message> second = server_->Receive();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->payload, std::vector<uint8_t>(3, 9));
}

TEST(TcpDialTest, DialsLiveListener) {
  StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread accepter([&listener] { (void)listener->Accept(); });
  DialOptions options;
  options.retry.max_attempts = 2;
  const StatusOr<std::unique_ptr<Transport>> dialed =
      TcpDial("127.0.0.1", listener->port(), options);
  EXPECT_TRUE(dialed.ok()) << dialed.status().ToString();
  listener->Close();
  accepter.join();
}

TEST(TcpDialTest, RefusedDialRetriesThenFailsUnavailable) {
  StatusOr<TcpListener> listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  listener->Close();

  DialOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff_ms = 1;
  options.retry.max_backoff_ms = 2;
  const StatusOr<std::unique_ptr<Transport>> dialed =
      TcpDial("127.0.0.1", port, options);
  ASSERT_FALSE(dialed.ok());
  EXPECT_EQ(dialed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(dialed.status().message().find("3 attempt"), std::string::npos);
}

}  // namespace
}  // namespace dist
}  // namespace frapp
