// Socket transport tests: stream-framing fuzz (no sockets needed) and live
// hub/worker exchanges over Unix-domain and TCP-loopback sockets.
//
// The loopback tests run the worker side on a std::thread inside this
// process: the two SocketBus objects share nothing but the OS socket, which
// is exactly the cross-process topology, and keeps the suite TSan-clean.
// Environments without socket support skip gracefully.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_bus.hpp"
#include "util/clock.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace ufc::net {
namespace {

std::vector<std::byte> data_frame_bytes(std::size_t payload_len,
                                        std::int32_t iteration = 3) {
  Message msg;
  msg.source = front_end_id(1);
  msg.destination = datacenter_id(0);
  msg.type = MessageType::RoutingProposal;
  msg.iteration = iteration;
  msg.payload.resize(payload_len, 0.25);
  return encode_frame(FrameKind::Data, serialize(msg));
}

// ---------------------------------------------------------------------------
// Framing fuzz (satellite: >= 2000 trials per failure kind, no UB, no hang).

TEST(SocketFraming, FrameRoundTripsThroughReader) {
  const auto bytes = data_frame_bytes(4);
  FrameReader reader;
  reader.feed(bytes);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::Data);
  const Message decoded = deserialize(frame->body);
  EXPECT_EQ(decoded.payload.size(), 4u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(SocketFraming, EveryTruncatedPrefixYieldsNoFrameAndNoThrow) {
  const auto bytes = data_frame_bytes(6);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    FrameReader reader;
    reader.feed({bytes.data(), len});
    if (len < 2 * sizeof(std::uint32_t)) {
      // Header incomplete: the reader must simply wait for more bytes.
      EXPECT_FALSE(reader.next().has_value());
    } else {
      // Header visible and valid, body truncated: also wait, never throw.
      EXPECT_FALSE(reader.next().has_value());
      EXPECT_EQ(reader.buffered(), len);
    }
  }
}

TEST(SocketFraming, OversizedDeclaredLengthRejectedBeforeBodyArrives) {
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto oversize = static_cast<std::uint32_t>(
        kMaxFrameBytes + 1 +
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)));
    std::vector<std::byte> header;
    {
      // Hand-build the 8-byte header so the length can exceed what
      // encode_frame would ever produce.
      const auto kind = static_cast<std::uint32_t>(
          rng.uniform_int(1, 4));
      for (std::size_t b = 0; b < 4; ++b)
        header.push_back(static_cast<std::byte>((kind >> (8 * b)) & 0xFF));
      for (std::size_t b = 0; b < 4; ++b)
        header.push_back(
            static_cast<std::byte>((oversize >> (8 * b)) & 0xFF));
    }
    FrameReader reader;
    // Only the header is fed — the declared multi-gigabyte body never
    // arrives. The reader must reject NOW, before allocating for it.
    reader.feed(header);
    EXPECT_THROW(reader.next(), ContractViolation);
  }
}

TEST(SocketFraming, UnknownFrameKindsThrow) {
  Rng rng(22);
  for (int trial = 0; trial < 2000; ++trial) {
    auto kind = static_cast<std::uint32_t>(
        rng.uniform_int(0, 1) == 0
            ? rng.uniform_int(5, 1 << 24)
            : 0);
    std::vector<std::byte> header;
    for (std::size_t b = 0; b < 4; ++b)
      header.push_back(static_cast<std::byte>((kind >> (8 * b)) & 0xFF));
    for (std::size_t b = 0; b < 4; ++b) header.push_back(std::byte{0});
    FrameReader reader;
    reader.feed(header);
    EXPECT_THROW(reader.next(), ContractViolation);
  }
}

TEST(SocketFraming, PartialReadsAcrossArbitraryChunkBoundaries) {
  // Several messages of different sizes, delivered in random chunkings:
  // the reassembled frame stream must be identical every time.
  std::vector<std::byte> stream;
  std::vector<std::size_t> payload_lens = {0, 1, 7, 33, 2};
  for (std::size_t len : payload_lens) {
    const auto bytes = data_frame_bytes(len);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  Rng rng(33);
  for (int trial = 0; trial < 2000; ++trial) {
    FrameReader reader;
    std::vector<std::size_t> seen;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const auto chunk = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(stream.size() - offset)));
      reader.feed({stream.data() + offset, chunk});
      offset += chunk;
      while (auto frame = reader.next())
        seen.push_back(deserialize(frame->body).payload.size());
    }
    EXPECT_EQ(seen, payload_lens);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(SocketFraming, InterleavedControlAndDataFrames) {
  // Hello / Data / Metrics / Shutdown interleaved on one stream, fed byte
  // by byte: kinds and bodies must come out exactly as encoded.
  Rng rng(44);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::byte> stream;
    std::vector<FrameKind> kinds;
    const int frames = static_cast<int>(rng.uniform_int(1, 6));
    for (int f = 0; f < frames; ++f) {
      const auto kind =
          static_cast<FrameKind>(rng.uniform_int(1, 4));
      kinds.push_back(kind);
      std::vector<std::byte> body(
          static_cast<std::size_t>(rng.uniform_int(0, 64)));
      for (auto& b : body)
        b = static_cast<std::byte>(rng.uniform_int(0, 255));
      const auto bytes = encode_frame(kind, body);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
    FrameReader reader;
    std::vector<FrameKind> seen;
    for (std::byte b : stream) {
      reader.feed({&b, 1});
      while (auto frame = reader.next()) seen.push_back(frame->kind);
    }
    EXPECT_EQ(seen, kinds);
  }
}

TEST(SocketFraming, HelloBodyRoundTripsAndRejectsMalformed) {
  const std::vector<NodeId> nodes = {datacenter_id(0), datacenter_id(3),
                                     kCoordinatorId};
  const auto body = encode_hello_body(7, nodes);
  const HelloBody back = decode_hello_body(body);
  EXPECT_EQ(back.worker_index, 7u);
  EXPECT_EQ(back.nodes, nodes);
  for (std::size_t len = 0; len < body.size(); ++len)
    EXPECT_THROW(decode_hello_body({body.data(), len}), ContractViolation);
}

TEST(SocketFraming, MetricsBodyRoundTripsAndSurvivesMutation) {
  const std::map<std::string, std::uint64_t> counters = {
      {"worker.rounds_processed", 41}, {"worker.net.bytes", 123456}};
  const std::map<std::string, double> gauges = {
      {"worker.uptime_seconds", 1.25}};
  const auto body = encode_metrics_body(counters, gauges);
  const MetricsBody back = decode_metrics_body(body);
  EXPECT_EQ(back.counters, counters);
  EXPECT_EQ(back.gauges, gauges);

  Rng rng(55);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = body;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::byte>(rng.uniform_int(1, 255));
    }
    try {
      const MetricsBody decoded = decode_metrics_body(mutated);
      // Mutated keys may re-sort or collide in the maps, so byte-exact
      // re-encoding is not guaranteed — but the decode→encode→decode loop
      // must be a fixed point.
      const auto reencoded =
          encode_metrics_body(decoded.counters, decoded.gauges);
      const MetricsBody again = decode_metrics_body(reencoded);
      EXPECT_EQ(again.counters, decoded.counters);
      EXPECT_EQ(again.gauges, decoded.gauges);
    } catch (const ContractViolation&) {
      // Expected for most mutations.
    }
  }
}

TEST(SocketFraming, EncodeFrameRejectsOversizedBody) {
  const std::vector<std::byte> body(kMaxFrameBytes + 1);
  EXPECT_THROW(encode_frame(FrameKind::Data, body), ContractViolation);
}

TEST(SocketFraming, FrameBodiesViewTheBufferUntilTheNextFeed) {
  // Two frames in one feed: both bodies stay readable side by side, and
  // each deserializes to what was encoded.
  std::vector<std::byte> stream = data_frame_bytes(3, 7);
  const auto second = data_frame_bytes(5, 8);
  stream.insert(stream.end(), second.begin(), second.end());
  FrameReader reader;
  reader.feed(stream);
  const auto a = reader.next();
  const auto b = reader.next();
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(deserialize(a->body).iteration, 7);
  EXPECT_EQ(deserialize(b->body).iteration, 8);
  EXPECT_EQ(deserialize(b->body).payload.size(), 5u);
  // Fully consumed: the next feed starts a fresh buffer.
  reader.feed(data_frame_bytes(1, 9));
  const auto c = reader.next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(deserialize(c->body).iteration, 9);
  EXPECT_EQ(reader.buffered(), 0u);
}

// ---------------------------------------------------------------------------
// IoDeadline.

TEST(IoDeadline, ZeroBudgetChecksOnceAndNeverWaits) {
  const IoDeadline zero(0);
  EXPECT_TRUE(zero.expired());
  EXPECT_EQ(zero.remaining_ms(), 0);
  const IoDeadline negative(-5);
  EXPECT_TRUE(negative.expired());
  EXPECT_EQ(negative.remaining_ms(), 0);
}

TEST(IoDeadline, TimeLeftRoundsUpToWholeMilliseconds) {
  // A fresh budget has used a fraction of a millisecond; truncating read
  // IoDeadline(1) as expired at construction and turned the last fraction
  // of every deadline into a poll(..., 0) spin.
  const IoDeadline one(1);
  EXPECT_FALSE(one.expired());
  EXPECT_EQ(one.remaining_ms(), 1);
  const IoDeadline minute(60000);
  EXPECT_EQ(minute.remaining_ms(), 60000);
  // It still expires once its time is up.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(one.expired());
  EXPECT_EQ(one.remaining_ms(), 0);
  EXPECT_LT(minute.remaining_ms(), 60000);
}

// ---------------------------------------------------------------------------
// Live socket exchanges.

std::string unique_socket_path(const char* tag) {
  static int counter = 0;
  return "/tmp/ufc_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++) +
         ".sock";
}

SocketBusConfig hub_config(const SocketEndpoint& endpoint) {
  SocketBusConfig config;
  config.endpoint = endpoint;
  config.hub = true;
  config.local_nodes = {kCoordinatorId, front_end_id(0), front_end_id(1)};
  return config;
}

SocketBusConfig worker_config(const SocketEndpoint& endpoint) {
  SocketBusConfig config;
  config.endpoint = endpoint;
  config.hub = false;
  config.worker_index = 0;
  config.local_nodes = {datacenter_id(0)};
  return config;
}

/// Builds the hub or skips the test when the environment refuses sockets.
std::optional<SocketBus> try_make_hub(const SocketEndpoint& endpoint) {
  try {
    return std::optional<SocketBus>(std::in_place, hub_config(endpoint));
  } catch (const std::runtime_error& error) {
    return std::nullopt;
  }
}

Message proposal_to(NodeId destination, std::int32_t iteration) {
  Message msg;
  msg.source = front_end_id(0);
  msg.destination = destination;
  msg.type = MessageType::RoutingProposal;
  msg.iteration = iteration;
  msg.payload = {0.5, -1.5};
  return msg;
}

void exercise_round_trip(const SocketEndpoint& hub_endpoint) {
  auto hub = try_make_hub(hub_endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  SocketEndpoint worker_endpoint = hub_endpoint;
  if (worker_endpoint.unix_path.empty())
    worker_endpoint.tcp_port = hub->bound_tcp_port();

  // The worker side runs on a thread; the two buses share only the socket.
  std::thread worker([worker_endpoint] {
    SocketBus bus(worker_config(worker_endpoint));
    ASSERT_TRUE(bus.connect_to_hub(4000));
    // Wait for the proposal, echo an assignment + a report back.
    ASSERT_GT(bus.poll_pending(datacenter_id(0), 4000), 0u);
    const auto messages = bus.drain(datacenter_id(0));
    ASSERT_EQ(messages.size(), 1u);
    EXPECT_EQ(messages[0].type, MessageType::RoutingProposal);
    EXPECT_EQ(messages[0].payload, (std::vector<double>{0.5, -1.5}));
    Message reply;
    reply.source = datacenter_id(0);
    reply.destination = front_end_id(0);
    reply.type = MessageType::RoutingAssignment;
    reply.iteration = messages[0].iteration;
    reply.payload = {0.75};
    EXPECT_EQ(bus.send(reply), SendOutcome::Delivered);
    Message report;
    report.source = datacenter_id(0);
    report.destination = kCoordinatorId;
    report.type = MessageType::ConvergenceReport;
    report.iteration = messages[0].iteration;
    report.payload = {1e-3};
    EXPECT_EQ(bus.send(report), SendOutcome::Delivered);
    // Stay alive until the hub says shutdown, then confirm with metrics.
    const IoDeadline deadline(4000);
    while (!bus.shutdown_requested() && !deadline.expired())
      bus.pump(deadline.remaining_ms());
    EXPECT_TRUE(bus.shutdown_requested());
    EXPECT_EQ(bus.send_metrics({{"worker.rounds_processed", 1}}, {}, 2000),
              SendOutcome::Delivered);
  });

  ASSERT_EQ(hub->wait_for_workers(1, 4000), 1u);
  hub->begin_round(3);
  EXPECT_EQ(hub->send(proposal_to(datacenter_id(0), 3)),
            SendOutcome::Delivered);
  // The assignment must land at the front-end, the report at the
  // coordinator — both via the real wire.
  ASSERT_GT(hub->poll_pending(front_end_id(0), 4000), 0u);
  const auto assignment = hub->receive(front_end_id(0));
  ASSERT_TRUE(assignment.has_value());
  EXPECT_EQ(assignment->type, MessageType::RoutingAssignment);
  EXPECT_EQ(assignment->payload, std::vector<double>{0.75});
  ASSERT_GT(hub->poll_pending(kCoordinatorId, 4000), 0u);
  EXPECT_EQ(hub->max_pending_iteration(kCoordinatorId), 3);
  const auto report = hub->receive(kCoordinatorId);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->type, MessageType::ConvergenceReport);

  hub->send_shutdown(2000);
  const IoDeadline deadline(4000);
  while (hub->take_worker_metrics().empty() && !deadline.expired()) {
    hub->pump(deadline.remaining_ms());
    if (!hub->connected_workers()) break;
  }
  worker.join();
  EXPECT_GT(hub->total().messages, 0u);
  EXPECT_GT(hub->total().bytes, 0u);
}

TEST(SocketBusLive, UnixRoundTripAndShutdown) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("rt");
  exercise_round_trip(endpoint);
}

TEST(SocketBusLive, TcpLoopbackRoundTrip) {
  SocketEndpoint endpoint;  // unix_path empty = TCP, port 0 = ephemeral.
  exercise_round_trip(endpoint);
}

TEST(SocketBusLive, LocalShortCircuitNeverTouchesTheWire) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("local");
  auto hub = try_make_hub(endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  const Message msg = proposal_to(front_end_id(1), 0);
  EXPECT_EQ(hub->send(msg), SendOutcome::Delivered);
  EXPECT_EQ(hub->pending(front_end_id(1)), 1u);
  const auto back = hub->receive(front_end_id(1));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);
}

TEST(SocketBusLive, SendToUnknownNodeFailsInsteadOfHanging) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("unknown");
  auto hub = try_make_hub(endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  // No worker ever announced datacenter 5: the send must fail fast.
  EXPECT_EQ(hub->send(proposal_to(datacenter_id(5), 0)),
            SendOutcome::Failed);
  EXPECT_EQ(hub->total().delivery_failures, 1u);
}

TEST(SocketBusLive, ConnectToAbsentHubFailsWithBackoffAccounting) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("absent");
  SocketBusConfig config = worker_config(endpoint);
  config.max_attempts = 3;
  config.connect_timeout_ms = 50;
  SocketBus bus(std::move(config));
  const util::MonotonicTimer timer;
  EXPECT_FALSE(bus.connect_to_hub(300));
  // Deadline-bounded: nowhere near a hang.
  EXPECT_LT(timer.elapsed_seconds(), 5.0);
  EXPECT_EQ(bus.total().retransmissions, 3u);
  // 2^0 + 2^1 between the three attempts (none after the last).
  EXPECT_EQ(bus.total().backoff_rounds, 3u);
  // And a send to a remote node surfaces Failed, not a hang.
  EXPECT_EQ(bus.send(proposal_to(kCoordinatorId, 0)), SendOutcome::Failed);
}

TEST(SocketBusLive, WorkerDeathSurfacesAsNewlyDisconnected) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("death");
  auto hub = try_make_hub(endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  {
    SocketBus bus(worker_config(endpoint));
    ASSERT_TRUE(bus.connect_to_hub(4000));
    ASSERT_EQ(hub->wait_for_workers(1, 4000), 1u);
    // Destructor closes the stream: the OS-level death signal.
  }
  const IoDeadline deadline(4000);
  std::vector<NodeId> dead;
  while (dead.empty() && !deadline.expired()) {
    hub->pump(deadline.remaining_ms());
    dead = hub->take_newly_disconnected();
  }
  EXPECT_EQ(dead, std::vector<NodeId>{datacenter_id(0)});
  EXPECT_EQ(hub->connected_workers(), 0u);
}

TEST(SocketBusLive, RemoteSendWritesNothingUntilTheSenderPumps) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("batch");
  auto hub = try_make_hub(endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  constexpr std::int32_t kSends = 6;
  std::promise<void> queued;
  std::promise<void> checked;
  std::size_t seen_before_pump = 0;
  std::vector<std::int32_t> order;
  std::thread worker([&endpoint, &queued, &checked, &seen_before_pump,
                      &order] {
    SocketBus bus(worker_config(endpoint));
    EXPECT_TRUE(bus.connect_to_hub(4000));
    (void)queued.get_future().wait_for(std::chrono::seconds(5));
    // The hub has sent but not pumped: nothing may be on the wire yet.
    seen_before_pump = bus.poll_pending(datacenter_id(0), 50);
    checked.set_value();
    const IoDeadline deadline(4000);
    while (bus.pending(datacenter_id(0)) < kSends && !deadline.expired())
      bus.pump(deadline.remaining_ms());
    for (const Message& message : bus.drain(datacenter_id(0)))
      order.push_back(message.iteration);
  });

  const std::size_t connected = hub->wait_for_workers(1, 4000);
  for (std::int32_t k = 0; k < kSends; ++k)
    EXPECT_EQ(hub->send(proposal_to(datacenter_id(0), k)),
              SendOutcome::Delivered);
  queued.set_value();
  (void)checked.get_future().wait_for(std::chrono::seconds(5));
  hub->pump(0);
  worker.join();

  EXPECT_EQ(connected, 1u);
  EXPECT_EQ(seen_before_pump, 0u);
  std::vector<std::int32_t> expected;
  for (std::int32_t k = 0; k < kSends; ++k) expected.push_back(k);
  EXPECT_EQ(order, expected);  // All of them, in FIFO order.
  EXPECT_EQ(hub->total().messages, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(hub->total().delivery_failures, 0u);
}

TEST(SocketBusLive, QueuedMessagesToADeadPeerCountAsDeliveryFailures) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("queued_death");
  auto hub = try_make_hub(endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  {
    SocketBus bus(worker_config(endpoint));
    ASSERT_TRUE(bus.connect_to_hub(4000));
    ASSERT_EQ(hub->wait_for_workers(1, 4000), 1u);
  }
  // The worker is gone, but the hub has not noticed: the sends queue.
  constexpr std::uint64_t kSends = 5;
  for (std::uint64_t k = 0; k < kSends; ++k)
    EXPECT_EQ(hub->send(proposal_to(datacenter_id(0), 0)),
              SendOutcome::Delivered);
  const NodeId from = front_end_id(0);
  EXPECT_EQ(hub->link(from, datacenter_id(0)).messages, kSends);

  const IoDeadline deadline(4000);
  std::vector<NodeId> dead;
  while (dead.empty() && !deadline.expired()) {
    hub->pump(deadline.remaining_ms());
    dead = hub->take_newly_disconnected();
  }
  EXPECT_EQ(dead, std::vector<NodeId>{datacenter_id(0)});
  const LinkStats link = hub->link(from, datacenter_id(0));
  EXPECT_EQ(link.messages + link.delivery_failures, kSends);
  EXPECT_EQ(link.delivery_failures, kSends);  // None of them was read.
  EXPECT_EQ(hub->total().messages + hub->total().delivery_failures, kSends);
  EXPECT_EQ(hub->total().delivery_failures, kSends);
}

TEST(SocketBusLive, ForwardsQueuedForAWorkerThatDiesCountAsDeliveryFailures) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("forward_death");
  auto hub = try_make_hub(endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  SocketBus sender(worker_config(endpoint));
  ASSERT_TRUE(sender.connect_to_hub(4000));
  ASSERT_EQ(hub->wait_for_workers(1, 4000), 1u);
  constexpr std::uint64_t kSends = 4;
  {
    SocketBusConfig config = worker_config(endpoint);
    config.worker_index = 1;
    config.local_nodes = {datacenter_id(1)};
    SocketBus doomed(std::move(config));
    ASSERT_TRUE(doomed.connect_to_hub(4000));
    ASSERT_EQ(hub->wait_for_workers(2, 4000), 2u);
    // Worker 0 writes its messages for worker 1's node before worker 1
    // dies; the hub reads both streams in one pump and cannot forward.
    for (std::uint64_t k = 0; k < kSends; ++k) {
      Message message = proposal_to(datacenter_id(1), 0);
      message.source = datacenter_id(0);
      EXPECT_EQ(sender.send(message), SendOutcome::Delivered);
    }
    sender.pump(0);
  }
  const IoDeadline deadline(4000);
  while (hub->connected_workers() > 1 && !deadline.expired())
    hub->pump(deadline.remaining_ms());
  hub->pump(50);  // Whatever of worker 0's frames is still unread.
  EXPECT_EQ(hub->total().messages + hub->total().delivery_failures, kSends);
  EXPECT_EQ(hub->total().delivery_failures, kSends);
}

/// A bare Unix stream client speaking the frame protocol by hand: a peer
/// that, unlike SocketBus, can stop reading and send a frame addressed to
/// its own node (which the hub forwards straight back to it). Receives
/// time out after 5 s, so a broken hub fails the test instead of hanging.
int dial_raw_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  timeval timeout{5, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_raw(int fd, std::span<const std::byte> bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

TEST(SocketBusLive, ForwardArrivingDuringABlockedWriteIsQueuedAndDelivered) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("blocked_forward");
  SocketBusConfig config = hub_config(endpoint);
  config.io_timeout_ms = 10000;
  std::optional<SocketBus> hub;
  try {
    hub.emplace(std::move(config));
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "socket support unavailable";
  }
  // Far more than the socket buffers hold, so the hub's write blocks until
  // the client reads.
  constexpr std::int32_t kBig = 32;
  constexpr std::int32_t kForwarded = 999;
  std::promise<void> queued;
  std::vector<std::int32_t> seen;
  std::thread client([&endpoint, &queued, &seen] {
    const int fd = dial_raw_client(endpoint.unix_path);
    EXPECT_GE(fd, 0);
    if (fd < 0) return;
    const std::vector<NodeId> nodes = {datacenter_id(0)};
    EXPECT_TRUE(write_raw(
        fd, encode_frame(FrameKind::Hello, encode_hello_body(0, nodes))));
    (void)queued.get_future().wait_for(std::chrono::seconds(5));
    // Let the hub block on the full stream, then send a frame for this
    // client's own node while it is blocked, and only then start reading.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Message message = proposal_to(datacenter_id(0), kForwarded);
    EXPECT_TRUE(
        write_raw(fd, encode_frame(FrameKind::Data, serialize(message))));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    FrameReader reader;
    std::array<std::byte, 65536> chunk;
    while (seen.size() < static_cast<std::size_t>(kBig) + 1) {
      const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
      if (n <= 0) break;
      reader.feed({chunk.data(), static_cast<std::size_t>(n)});
      while (auto frame = reader.next())
        if (frame->kind == FrameKind::Data)
          seen.push_back(deserialize(frame->body).iteration);
    }
    ::close(fd);
  });

  const std::size_t connected = hub->wait_for_workers(1, 4000);
  for (std::int32_t k = 0; k < kBig; ++k) {
    Message message = proposal_to(datacenter_id(0), k);
    message.payload.assign(16384, 0.5);  // 128 KiB per frame.
    EXPECT_EQ(hub->send(message), SendOutcome::Delivered);
  }
  queued.set_value();
  hub->pump(0);  // Blocks in the write until the client reads.
  client.join();

  EXPECT_EQ(connected, 1u);
  std::vector<std::int32_t> expected;
  for (std::int32_t k = 0; k < kBig; ++k) expected.push_back(k);
  expected.push_back(kForwarded);
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(hub->total().delivery_failures, 0u);
  EXPECT_EQ(hub->total().messages, static_cast<std::uint64_t>(kBig) + 1);
}

TEST(SocketBusLive, PollPendingHonorsDeadlineWhenNothingArrives) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("deadline");
  auto hub = try_make_hub(endpoint);
  if (!hub.has_value()) GTEST_SKIP() << "socket support unavailable";
  const util::MonotonicTimer timer;
  EXPECT_EQ(hub->poll_pending(kCoordinatorId, 100), 0u);
  const double waited = timer.elapsed_seconds();
  EXPECT_GE(waited, 0.05);  // It did wait...
  EXPECT_LT(waited, 5.0);   // ...but returned promptly at the deadline.
}

TEST(SocketBusContract, UnboundedAttemptsAreRejected) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("contract");
  SocketBusConfig config = worker_config(endpoint);
  config.max_attempts = 0;  // Legal on the in-process bus, not on a socket.
  EXPECT_THROW(SocketBus{std::move(config)}, ContractViolation);
}

TEST(SocketBusContract, EmptyLocalNodesAreRejected) {
  SocketEndpoint endpoint;
  endpoint.unix_path = unique_socket_path("nodes");
  SocketBusConfig config = worker_config(endpoint);
  config.local_nodes.clear();
  EXPECT_THROW(SocketBus{std::move(config)}, ContractViolation);
}

}  // namespace
}  // namespace ufc::net
