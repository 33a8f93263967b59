// Fault-injection plan for the distributed ADM-G protocol.
//
// A FaultPlan is a pure, declarative description of what goes wrong on the
// WAN and when: scripted link partitions and node crash windows (in protocol
// rounds), plus seeded-random per-message faults (bounded loss, payload
// corruption, delivery delay). The MessageBus consults the plan on every
// send and the runtime consults it to decide which agents execute a round,
// so a single plan drives both layers consistently.
//
// A default-constructed plan is the zero-fault plan: the bus and runtime
// behave bit-identically to the fault-free protocol (tests pin this).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/message.hpp"

namespace ufc::net {

/// Sentinel for windows that never close (crash-stop, permanent partition).
inline constexpr int kForeverRound = std::numeric_limits<int>::max();

/// Half-open round interval [first, last).
struct RoundWindow {
  int first = 0;
  int last = kForeverRound;
  bool contains(int round) const { return round >= first && round < last; }
};

/// Symmetric link partition: no message passes between `a` and `b` (either
/// direction) while the window is open.
struct PartitionSpec {
  NodeId a = 0;
  NodeId b = 0;
  RoundWindow window;
};

/// Node crash: the node executes nothing and acknowledges nothing while the
/// window is open. last == kForeverRound models crash-stop; a finite window
/// models crash-restart (the node resumes from its local state).
struct CrashSpec {
  NodeId node = 0;
  RoundWindow window;
};

/// Seeded-random per-message faults, applied by the bus.
struct RandomFaults {
  double loss_rate = 0.0;        ///< Per-attempt drop probability, in [0, 1).
  double corruption_rate = 0.0;  ///< Per-delivery wire-byte mutation probability.
  double delay_rate = 0.0;       ///< Per-delivery probability of a round delay.
  int max_delay_rounds = 1;      ///< Delay drawn uniformly from [1, max].
};

class FaultPlan {
 public:
  /// Builder interface; each returns *this so plans read declaratively.
  FaultPlan& partition(NodeId a, NodeId b, RoundWindow window);
  FaultPlan& crash(NodeId node, RoundWindow window);
  FaultPlan& random_faults(const RandomFaults& faults);

  /// True for the zero-fault plan (no scripted events, all rates zero).
  bool empty() const;
  /// True when every sent message is eventually delivered un-tampered within
  /// its own round given unbounded retries: no partitions, no crashes, no
  /// corruption, no delay. Loss alone is delivery-preserving (the
  /// reliable-retransmit model).
  bool delivery_preserving() const;

  bool link_blocked(NodeId from, NodeId to, int round) const;
  bool node_down(NodeId node, int round) const;

  const RandomFaults& random() const { return random_; }
  const std::vector<PartitionSpec>& partitions() const { return partitions_; }
  const std::vector<CrashSpec>& crashes() const { return crashes_; }

 private:
  std::vector<PartitionSpec> partitions_;
  std::vector<CrashSpec> crashes_;
  RandomFaults random_;
};

}  // namespace ufc::net
