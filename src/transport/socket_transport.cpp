#include "transport/socket_transport.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "transport/fault_injection.hpp"

namespace mns::transport {

namespace {

// Wire format (little-endian, fixed 32-byte header):
//   u32 magic 'MNS2' | u8 type | u8 from_rank | u16 count | u64 seq |
//   u64 ack (cumulative ACK of the reverse link) |
//   i64 round (DATA/FENCE: round, CTRL: tag, ACK: 0)
// DATA/FENCE body: count * 20-byte records {u32 slot, i32 tag, i32 aux,
// i64 value}; FENCE is the round's last DATA packet to a peer. CTRL body:
// one u64 value. ACK: seq 0, no body.
constexpr std::uint32_t kMagic = 0x324e534d;  // "MNS2"
constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kFence = 2;
constexpr std::uint8_t kAck = 3;
constexpr std::uint8_t kCtrl = 4;
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kAckOffset = 16;
constexpr std::size_t kRecordBytes = 20;
constexpr std::size_t kCtrlBytes = kHeaderBytes + 8;
/// 32 + 64*20 = 1312 bytes, under UdpTransport::kMaxDatagramBytes.
constexpr std::size_t kMaxRecordsPerDatagram = 64;
constexpr std::size_t kMaxPacketBytes =
    kHeaderBytes + kMaxRecordsPerDatagram * kRecordBytes;

template <typename U>
void store(std::uint8_t* p, U x) {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &x, sizeof x);
  } else {
    for (std::size_t b = 0; b < sizeof x; ++b)
      p[b] = static_cast<std::uint8_t>(x >> (8 * b));
  }
}

template <typename U>
U load(const std::uint8_t* p) {
  static_assert(std::is_unsigned_v<U>);
  U x = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&x, p, sizeof x);
  } else {
    for (std::size_t b = sizeof x; b-- > 0;)
      x = static_cast<U>((x << 8) | p[b]);
  }
  return x;
}

void store_record(std::uint8_t* p, std::uint32_t slot,
                  const congest::Message& m) {
  store(p, slot);
  store(p + 4, static_cast<std::uint32_t>(m.tag));
  store(p + 8, static_cast<std::uint32_t>(m.aux));
  store(p + 12, static_cast<std::uint64_t>(m.value));
}

congest::Message load_message(const std::uint8_t* record) {
  congest::Message m;
  m.tag = static_cast<std::int32_t>(load<std::uint32_t>(record + 4));
  m.aux = static_cast<std::int32_t>(load<std::uint32_t>(record + 8));
  m.value = static_cast<std::int64_t>(load<std::uint64_t>(record + 12));
  return m;
}

/// Writes every header field but the ACK, which transmit() stamps fresh.
void store_header(std::uint8_t* p, std::uint8_t type, int from_rank,
                  std::uint16_t count, std::uint64_t seq, std::int64_t round) {
  store(p, kMagic);
  p[4] = type;
  p[5] = static_cast<std::uint8_t>(from_rank);
  store(p + 6, count);
  store(p + 8, seq);
  store(p + kAckOffset, std::uint64_t{0});
  store(p + 24, static_cast<std::uint64_t>(round));
}

}  // namespace

SocketTransport::SocketTransport(const Graph& graph,
                                 SocketTransportConfig config,
                                 std::unique_ptr<DatagramTransport> net)
    : config_(config),
      net_(std::move(net)),
      num_vertices_(graph.num_vertices()) {
  if (config_.ranks < 1 || config_.ranks > kMaxRanks)
    throw TransportError("SocketTransport: ranks " +
                         std::to_string(config_.ranks) + " not in [1, " +
                         std::to_string(kMaxRanks) + "]");
  if (config_.rank < 0 || config_.rank >= config_.ranks)
    throw TransportError("SocketTransport: rank " +
                         std::to_string(config_.rank) + " not in [0, " +
                         std::to_string(config_.ranks) + ")");
  if (config_.ranks > 1 && net_ == nullptr)
    throw TransportError("SocketTransport: null datagram transport");
  if (config_.window < 1 || config_.max_timeout_ms < kInitialTimeoutMs ||
      config_.stall_timeout_ms < config_.max_timeout_ms)
    throw TransportError("SocketTransport: bad window/timeout configuration");
  links_.resize(static_cast<std::size_t>(config_.ranks));
  if (config_.ranks == 1) return;  // exchange() never routes anything
  // Every peer may have a window of packets in flight toward this rank
  // while it computes its round instead of receiving.
  net_->reserve_receive(static_cast<std::size_t>(config_.window) *
                        static_cast<std::size_t>(config_.ranks - 1));
  route_.resize(2 * static_cast<std::size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& ed = graph.edge(e);
    const auto ou = static_cast<std::uint8_t>(owner(ed.u));
    const auto ov = static_cast<std::uint8_t>(owner(ed.v));
    // Slot 2e is sent by ed.u to ed.v, slot 2e+1 the other way (§9).
    route_[2 * static_cast<std::size_t>(e)] = Route{ou, ov};
    route_[2 * static_cast<std::size_t>(e) + 1] = Route{ov, ou};
  }
  for (Link& link : links_) link.open.resize(kMaxPacketBytes);
}

SocketTransport::~SocketTransport() = default;

TransportStats SocketTransport::stats() const {
  TransportStats out = stats_;
  if (const auto* faults =
          dynamic_cast<const FaultInjectingTransport*>(net_.get())) {
    out.faults_dropped = faults->dropped();
    out.faults_duplicated = faults->duplicated();
    out.faults_held = faults->held();
  }
  return out;
}

int SocketTransport::owner(VertexId v) const noexcept {
  // The largest r with floor(n*r/ranks) <= v, i.e. n*r < (v+1)*ranks.
  if (num_vertices_ <= 0) return 0;
  return static_cast<int>(
      ((static_cast<long long>(v) + 1) * config_.ranks - 1) / num_vertices_);
}

std::int64_t SocketTransport::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SocketTransport::Bytes SocketTransport::take_buffer() {
  if (spare_.empty()) return {};
  Bytes out = std::move(spare_.back());
  spare_.pop_back();
  return out;
}

void SocketTransport::recycle(Bytes&& bytes) {
  spare_.push_back(std::move(bytes));
}

void SocketTransport::transmit(int peer, SentPacket& packet) {
  Link& link = links_[static_cast<std::size_t>(peer)];
  // Every (re)transmission carries the freshest cumulative ACK.
  const std::uint64_t ack = link.next_expected - 1;
  store(packet.bytes.data() + kAckOffset, ack);
  link.ack_told = std::max(link.ack_told, ack);
  link.ack_reliable = std::max(link.ack_reliable, ack);
  net_->send(peer, packet.bytes);
  ++stats_.datagrams_sent;
  packet.deadline_ms = now_ms() + packet.timeout_ms;
}

void SocketTransport::pump(int peer) {
  Link& link = links_[static_cast<std::size_t>(peer)];
  while (link.inflight.size() < static_cast<std::size_t>(config_.window) &&
         !link.queued.empty()) {
    SentPacket packet = std::move(link.queued.front());
    link.queued.pop_front();
    transmit(peer, packet);
    link.inflight.push_back(std::move(packet));
  }
}

void SocketTransport::send_reliable(int peer, std::uint8_t type,
                                    std::int64_t round, Bytes bytes,
                                    std::uint16_t count) {
  Link& link = links_[static_cast<std::size_t>(peer)];
  SentPacket packet;
  packet.seq = link.next_seq++;
  packet.timeout_ms = kInitialTimeoutMs;
  packet.deadline_ms = 0;
  packet.bytes = std::move(bytes);
  store_header(packet.bytes.data(), type, config_.rank, count, packet.seq,
               round);
  if (link.inflight.size() < static_cast<std::size_t>(config_.window)) {
    transmit(peer, packet);
    link.inflight.push_back(std::move(packet));
  } else {
    link.queued.push_back(std::move(packet));
  }
}

void SocketTransport::send_open(int peer, std::uint8_t type,
                                std::int64_t round) {
  Link& link = links_[static_cast<std::size_t>(peer)];
  link.open.resize(kHeaderBytes + link.open_count * kRecordBytes);
  send_reliable(peer, type, round, std::move(link.open), link.open_count);
  link.open = take_buffer();
  link.open.resize(kMaxPacketBytes);
  link.open_count = 0;
}

void SocketTransport::flush_acks() {
  std::uint8_t ack[kHeaderBytes];
  for (int p = 0; p < config_.ranks; ++p) {
    Link& link = links_[static_cast<std::size_t>(p)];
    if (!link.ack_due) continue;
    link.ack_due = false;
    const std::uint64_t value = link.next_expected - 1;
    // A reliable packet sent during this drain (a pump) already carries it.
    if (value <= link.ack_reliable) continue;
    store_header(ack, kAck, config_.rank, 0, 0, 0);
    store(ack + kAckOffset, value);
    net_->send(p, ack);
    link.ack_told = std::max(link.ack_told, value);
    ++stats_.datagrams_sent;
    ++stats_.acks_sent;
  }
}

void SocketTransport::retransmit_due() {
  const std::int64_t now = now_ms();
  for (int p = 0; p < config_.ranks; ++p) {
    if (p == config_.rank) continue;
    for (SentPacket& packet : links_[static_cast<std::size_t>(p)].inflight) {
      if (now < packet.deadline_ms) continue;
      packet.timeout_ms = std::min(packet.timeout_ms * 2,
                                   config_.max_timeout_ms);
      transmit(p, packet);
      ++stats_.retransmits;
    }
  }
}

void SocketTransport::handle_datagram() {
  const std::uint8_t* bytes = recv_buf_.data();
  const std::size_t size = recv_buf_.size();
  if (size < kHeaderBytes || load<std::uint32_t>(bytes) != kMagic) {
    ++stats_.datagrams_rejected;
    return;
  }
  const std::uint8_t type = bytes[4];
  const int from = bytes[5];
  const auto count = load<std::uint16_t>(bytes + 6);
  const auto seq = load<std::uint64_t>(bytes + 8);
  const auto ack = load<std::uint64_t>(bytes + kAckOffset);
  const bool reliable = type == kData || type == kFence || type == kCtrl;
  bool well_formed = false;
  if (type == kData || type == kFence)
    well_formed = count <= kMaxRecordsPerDatagram &&
                  size == kHeaderBytes + count * kRecordBytes;
  else if (type == kCtrl)
    well_formed = count == 1 && size == kCtrlBytes;
  else if (type == kAck)
    well_formed = count == 0 && size == kHeaderBytes;
  if (!well_formed || from == config_.rank || from >= config_.ranks ||
      (reliable && seq == 0)) {
    ++stats_.datagrams_rejected;
    return;
  }
  Link& link = links_[static_cast<std::size_t>(from)];
  // A correct peer never runs `window` packets ahead of what this rank
  // delivered (all ranks share one config), and never ACKs a packet this
  // rank has not sent: anything else is forged or corrupt, and buffering
  // it would let the out-of-order map grow without bound.
  if (ack >= link.next_seq ||
      (reliable && seq >= link.next_expected &&
       seq - link.next_expected >=
           static_cast<std::uint64_t>(config_.window))) {
    ++stats_.datagrams_rejected;
    return;
  }

  while (!link.inflight.empty() && link.inflight.front().seq <= ack) {
    recycle(std::move(link.inflight.front().bytes));
    link.inflight.pop_front();
  }
  pump(from);
  if (!reliable) return;

  if (seq < link.next_expected) {
    // Duplicate (retransmit race or injected dup). Re-ACK it unless a
    // reliable packet already carries the ACK: that packet is retransmitted
    // until the peer has it.
    if (seq > link.ack_reliable) link.ack_due = true;
    return;
  }
  Inbound in;
  in.type = type;
  in.count = count;
  in.round = static_cast<std::int64_t>(load<std::uint64_t>(bytes + 24));
  in.bytes = std::move(recv_buf_);
  recv_buf_ = take_buffer();
  if (seq == link.next_expected) {
    link.ready.push_back(std::move(in));
    ++link.next_expected;
    auto it = link.out_of_order.find(link.next_expected);
    while (it != link.out_of_order.end()) {
      link.ready.push_back(std::move(it->second));
      link.out_of_order.erase(it);
      ++link.next_expected;
      it = link.out_of_order.find(link.next_expected);
    }
  } else if (!link.out_of_order.try_emplace(seq, std::move(in)).second) {
    recycle(std::move(in.bytes));  // already buffered
  }
  // CTRL traffic runs outside the round loop, where no reliable packet may
  // follow soon; a batch wider than half the window would otherwise wait on
  // the peer's retransmit timer for window space.
  if (type == kCtrl ||
      link.next_expected - 1 - link.ack_told >=
          static_cast<std::uint64_t>(std::max(1, config_.window / 2)))
    link.ack_due = true;
}

bool SocketTransport::poll_once() {
  // Wait at most until the earliest retransmit deadline (clamped to a small
  // cap so stall detection stays responsive).
  const std::int64_t now = now_ms();
  std::int64_t wait = 5;
  for (int p = 0; p < config_.ranks; ++p) {
    if (p == config_.rank) continue;
    const Link& link = links_[static_cast<std::size_t>(p)];
    if (!link.inflight.empty())
      wait = std::min(wait, link.inflight.front().deadline_ms - now);
  }
  wait = std::max<std::int64_t>(wait, 0);
  const bool got = net_->receive(recv_buf_, static_cast<int>(wait));
  if (got) {
    ++stats_.datagrams_received;
    last_receipt_ms_ = now_ms();
    handle_datagram();
    // Drain whatever else is already queued on the socket without waiting.
    while (net_->receive(recv_buf_, 0)) {
      ++stats_.datagrams_received;
      handle_datagram();
    }
  }
  flush_acks();
  retransmit_due();
  return got;
}

void SocketTransport::diverged(int peer, const std::string& what) const {
  throw TransportError("SocketTransport rank " + std::to_string(config_.rank) +
                       ": peer " + std::to_string(peer) + " " + what +
                       " (replica divergence)");
}

bool SocketTransport::absorb(int peer, const RoundTraffic& traffic) {
  Link& link = links_[static_cast<std::size_t>(peer)];
  while (!link.ready.empty()) {
    Inbound& in = link.ready.front();
    // The link is ordered and the peer fences every round before it moves
    // on, so anything but this round's DATA/FENCE here is divergence.
    if (in.type == kCtrl)
      diverged(peer, "sent all_gather traffic inside round " +
                         std::to_string(traffic.round));
    if (in.round != traffic.round)
      diverged(peer, "sent round " + std::to_string(in.round) +
                         " traffic inside round " +
                         std::to_string(traffic.round));
    const std::uint8_t* record = in.bytes.data() + kHeaderBytes;
    for (std::uint16_t j = 0; j < in.count; ++j, record += kRecordBytes) {
      const auto slot = load<std::uint32_t>(record);
      if (link.cursor == link.expected.size() ||
          traffic.slot[link.expected[link.cursor]] != slot)
        diverged(peer, "delivered unexpected slot " + std::to_string(slot) +
                           " in round " + std::to_string(traffic.round));
      // The authoritative substitution: this inbox payload now comes from
      // the wire, not from local computation.
      traffic.payload[link.expected[link.cursor++]] = load_message(record);
    }
    const bool fence = in.type == kFence;
    recycle(std::move(in.bytes));
    link.ready.pop_front();
    if (fence) {
      if (link.cursor != link.expected.size())
        diverged(peer, "fenced round " + std::to_string(traffic.round) +
                           " with " + std::to_string(link.cursor) + " of " +
                           std::to_string(link.expected.size()) +
                           " expected records delivered");
      return true;
    }
  }
  return false;
}

void SocketTransport::exchange(const RoundTraffic& traffic) {
  ++stats_.rounds_exchanged;
  if (config_.ranks <= 1) return;
  const std::int64_t round = traffic.round;
  const auto self = static_cast<std::uint8_t>(config_.rank);
  for (Link& link : links_) {
    link.expected.clear();
    link.cursor = 0;
    link.fenced = false;
  }

  // One pass over the canonical batch: entries whose sender this rank owns
  // and whose receiver it does not become wire records in the receiver
  // owner's open packet; the mirror-image entries become that peer's
  // expected list, in batch order. Third-party traffic (neither endpoint
  // owned here) stays a local replica computation.
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const std::uint32_t slot = traffic.slot[i];
    const Route route = route_[slot];
    if (route.from == route.to) continue;  // shard-local
    if (route.from == self) {
      Link& link = links_[route.to];
      store_record(link.open.data() + kHeaderBytes +
                       link.open_count * kRecordBytes,
                   slot, traffic.payload[i]);
      ++stats_.wire_records;
      if (++link.open_count == kMaxRecordsPerDatagram)
        send_open(route.to, kData, round);
    } else if (route.to == self) {
      links_[route.from].expected.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Each peer's last packet of the round is its FENCE — sent every round,
  // with or without records: it IS the lock-step barrier.
  for (int p = 0; p < config_.ranks; ++p)
    if (p != config_.rank) send_open(p, kFence, round);

  int unfenced = config_.ranks - 1;
  last_receipt_ms_ = now_ms();
  for (;;) {
    for (int p = 0; p < config_.ranks; ++p) {
      Link& link = links_[static_cast<std::size_t>(p)];
      if (p == config_.rank || link.fenced) continue;
      if (absorb(p, traffic)) {
        link.fenced = true;
        --unfenced;
      }
    }
    if (unfenced == 0) return;
    if (!poll_once() &&
        now_ms() - last_receipt_ms_ > config_.stall_timeout_ms)
      throw TransportError("SocketTransport rank " +
                           std::to_string(config_.rank) +
                           ": no datagrams for " +
                           std::to_string(config_.stall_timeout_ms) +
                           "ms awaiting round " + std::to_string(round) +
                           " (peer lost?)");
  }
}

std::vector<std::uint64_t> SocketTransport::all_gather(std::uint64_t tag,
                                                       std::uint64_t value) {
  std::vector<std::uint64_t> values(static_cast<std::size_t>(config_.ranks),
                                    0);
  values[static_cast<std::size_t>(config_.rank)] = value;
  if (config_.ranks <= 1) return values;
  for (int p = 0; p < config_.ranks; ++p) {
    if (p == config_.rank) continue;
    Bytes bytes = take_buffer();
    bytes.resize(kCtrlBytes);
    store(bytes.data() + kHeaderBytes, value);
    send_reliable(p, kCtrl, static_cast<std::int64_t>(tag), std::move(bytes),
                  1);
  }
  std::vector<char> got(static_cast<std::size_t>(config_.ranks), 0);
  got[static_cast<std::size_t>(config_.rank)] = 1;
  last_receipt_ms_ = now_ms();
  for (;;) {
    bool all = true;
    for (int p = 0; p < config_.ranks; ++p) {
      if (got[static_cast<std::size_t>(p)] != 0) continue;
      auto& ready = links_[static_cast<std::size_t>(p)].ready;
      if (!ready.empty()) {
        Inbound& in = ready.front();
        if (in.type != kCtrl)
          throw TransportError(
              "SocketTransport rank " + std::to_string(config_.rank) +
              ": peer " + std::to_string(p) +
              " sent round traffic inside all_gather (phase divergence)");
        if (in.round != static_cast<std::int64_t>(tag))
          throw TransportError(
              "SocketTransport rank " + std::to_string(config_.rank) +
              ": all_gather tag mismatch with peer " + std::to_string(p));
        values[static_cast<std::size_t>(p)] =
            load<std::uint64_t>(in.bytes.data() + kHeaderBytes);
        got[static_cast<std::size_t>(p)] = 1;
        recycle(std::move(in.bytes));
        ready.pop_front();
        continue;
      }
      all = false;
    }
    if (all) break;
    if (!poll_once() &&
        now_ms() - last_receipt_ms_ > config_.stall_timeout_ms)
      throw TransportError("SocketTransport rank " +
                           std::to_string(config_.rank) +
                           ": all_gather stalled (peer lost?)");
  }
  return values;
}

void SocketTransport::shutdown(int grace_ms) {
  if (config_.ranks <= 1 || net_ == nullptr) return;
  // Keep servicing retransmits (re-ACK dups, resend our unacked tail) until
  // the cluster has been silent for the grace period: a peer whose final
  // ACK was dropped can then finish its barrier instead of stalling.
  last_receipt_ms_ = now_ms();
  while (now_ms() - last_receipt_ms_ < grace_ms) (void)poll_once();
}

}  // namespace mns::transport
