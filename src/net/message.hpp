// Wire messages of the distributed ADM-G exchange (paper Fig. 2).
//
// One iteration needs exactly two message kinds:
//   RoutingProposal   front-end i -> datacenter j : (lambda~_ij, varphi_ij^k)
//   RoutingAssignment datacenter j -> front-end i : (a~_ij)
// plus small ConvergenceReport messages to the coordinator. Everything else
// (mu, nu, phi_j, the Gaussian back substitution) is node-local.
//
// Messages carry a binary payload and are serialized to a length-prefixed
// little-endian wire format so the bus can account bytes realistically and
// tests can round-trip them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ufc::net {

enum class MessageType : std::uint8_t {
  RoutingProposal = 1,    ///< FE -> DC: lambda~_ij and varphi_ij^k.
  RoutingAssignment = 2,  ///< DC -> FE: a~_ij.
  ConvergenceReport = 3,  ///< Agent -> coordinator: local residual.
  /// Remote DC -> coordinator: the complete post-round iterate of a
  /// datacenter hosted in another process, so the coordinator's shadow agent
  /// tracks it (multi-process distribution, docs/DISTRIBUTION.md). Payload
  /// (size 6 + 3m): [mu, nu, phi, balance_residual, oldest_input_round,
  /// stale_proposals, a_col..., lambda_cache..., varphi_cache...]. Never
  /// used by the in-process runtime.
  StateSync = 4,
};

/// Node addressing: front-ends and datacenters get disjoint id ranges; the
/// coordinator is a reserved well-known id.
using NodeId = std::int32_t;
inline constexpr NodeId kCoordinatorId = -1;

NodeId front_end_id(std::size_t i);
NodeId datacenter_id(std::size_t j);
bool is_front_end(NodeId id);
bool is_datacenter(NodeId id);
std::size_t front_end_index(NodeId id);
std::size_t datacenter_index(NodeId id);

struct Message {
  NodeId source = 0;
  NodeId destination = 0;
  MessageType type = MessageType::RoutingProposal;
  std::int32_t iteration = 0;
  std::vector<double> payload;

  bool operator==(const Message&) const = default;
};

/// Serialized size in bytes (header + payload).
std::size_t wire_size(const Message& message);

/// Length-prefixed little-endian encoding.
std::vector<std::byte> serialize(const Message& message);

/// Appends the serialize() bytes of `message` to `out` (wire_size(message)
/// bytes), so a sender can encode straight into its own buffer.
void append_serialized(std::vector<std::byte>& out, const Message& message);

/// Inverse of serialize. Throws ContractViolation on malformed input.
Message deserialize(std::span<const std::byte> bytes);

}  // namespace ufc::net
