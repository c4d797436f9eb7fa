#pragma once

/// \file frame.hpp
/// Ethernet frame model and byte-level codec.
///
/// The event simulation moves `Frame` objects (header fields + an opaque
/// typed payload) and accounts for sizes exactly; a byte-level serializer
/// (`serialize_frame`/`parse_frame`) exists so tests can push real frames
/// through the real PCS codec and CRC.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dtpsim::net {

/// 48-bit MAC address stored in the low bits of a u64.
struct MacAddr {
  std::uint64_t value = 0;

  static constexpr MacAddr broadcast() { return MacAddr{0xFFFF'FFFF'FFFFULL}; }
  constexpr bool is_broadcast() const { return value == 0xFFFF'FFFF'FFFFULL; }
  constexpr bool is_multicast() const { return (value >> 40) & 1; }

  constexpr bool operator==(const MacAddr&) const = default;
  std::string to_string() const;
};

/// Hash functor so MacAddr can key unordered_maps (forwarding tables).
struct MacAddrHash {
  std::size_t operator()(const MacAddr& m) const { return std::hash<std::uint64_t>{}(m.value); }
};

/// EtherTypes used in this repo.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;  ///< UDP-borne protocols (PTP/NTP/traffic)
inline constexpr std::uint16_t kEtherTypeTest = 0x88B5;  ///< local experiments

/// Base class for typed frame payloads (PTP messages, NTP messages, ...).
struct Packet {
  virtual ~Packet() = default;
};
using PacketPtr = std::shared_ptr<const Packet>;

/// Fixed Ethernet size accounting (bytes).
inline constexpr std::uint32_t kMacHeaderBytes = 14;   ///< dst + src + ethertype
inline constexpr std::uint32_t kFcsBytes = 4;
inline constexpr std::uint32_t kPreambleBytes = 8;     ///< preamble + SFD
inline constexpr std::uint32_t kMinFrameBytes = 64;    ///< header..FCS inclusive
inline constexpr std::uint32_t kMtuPayloadBytes = 1500;
/// The paper's "MTU-sized (1522 B)" frame: header + 1500 payload + FCS + VLAN.
inline constexpr std::uint32_t kMtuFrameBytes = 1522;
/// The paper's "jumbo-sized (~9 kB)" frame.
inline constexpr std::uint32_t kJumboFrameBytes = 9018;

/// One Ethernet frame in flight.
struct Frame {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = kEtherTypeTest;
  std::uint32_t payload_bytes = 46;  ///< MAC client data length
  PacketPtr packet;                  ///< optional typed payload
  std::uint64_t id = 0;              ///< unique id for tracing
  /// 802.1p class of service (0 = best effort .. 7 = network control).
  /// Honored by MACs configured with more than one egress queue.
  std::uint8_t priority = 0;
  /// In-frame mutable metadata modelling PTP's correctionField: transparent
  /// clocks add per-hop residence time here, rewriting the field on the fly
  /// exactly as IEEE 1588 one-step TCs rewrite the header in flight.
  double correction_ns = 0.0;

  /// Frame length from header through FCS, honoring the 64-byte minimum.
  std::uint32_t frame_bytes() const;
  /// Bytes occupying the wire: frame plus preamble/SFD.
  std::uint32_t wire_bytes() const { return frame_bytes() + kPreambleBytes; }
};

/// Frames waiting out a delay event (a host's software stack, a switch's
/// forwarding pipeline). The event captures the frame's index here instead
/// of the 64-byte frame, so its closure fits the sim::Callback inline buffer
/// and a delayed frame allocates nothing. Indices recycle through a free
/// list, so the storage tracks the most frames ever in flight at once.
class ParkedFrames {
 public:
  std::uint32_t park(Frame frame);
  /// Move the frame out and free its index, before the caller acts on it:
  /// whatever the caller does next may park another frame.
  Frame take(std::uint32_t idx);

 private:
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> free_;
};

/// Serialize header + dummy payload + real CRC into wire bytes (without
/// preamble); `parse_frame` reverses it and verifies the CRC.
std::vector<std::uint8_t> serialize_frame(const Frame& f,
                                          const std::vector<std::uint8_t>& payload);

/// Result of parsing a byte-level frame.
struct ParsedFrame {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = 0;
  std::vector<std::uint8_t> payload;
  bool fcs_ok = false;
};
ParsedFrame parse_frame(const std::vector<std::uint8_t>& bytes);

}  // namespace dtpsim::net
