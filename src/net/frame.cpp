#include "net/frame.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "net/crc32.hpp"

namespace dtpsim::net {

std::string MacAddr::to_string() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x",
                static_cast<unsigned>((value >> 40) & 0xFF), static_cast<unsigned>((value >> 32) & 0xFF),
                static_cast<unsigned>((value >> 24) & 0xFF), static_cast<unsigned>((value >> 16) & 0xFF),
                static_cast<unsigned>((value >> 8) & 0xFF), static_cast<unsigned>(value & 0xFF));
  return buf;
}

std::uint32_t Frame::frame_bytes() const {
  return std::max(kMacHeaderBytes + payload_bytes + kFcsBytes, kMinFrameBytes);
}

std::uint32_t ParkedFrames::park(Frame frame) {
  if (free_.empty()) {
    frames_.push_back(std::move(frame));
    return static_cast<std::uint32_t>(frames_.size() - 1);
  }
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  frames_[idx] = std::move(frame);
  return idx;
}

Frame ParkedFrames::take(std::uint32_t idx) {
  Frame f = std::move(frames_[idx]);
  free_.push_back(idx);
  return f;
}

namespace {
void put_mac(std::vector<std::uint8_t>& out, MacAddr m) {
  for (int i = 5; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(m.value >> (8 * i)));
}
MacAddr get_mac(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 6; ++i) v = (v << 8) | p[i];
  return MacAddr{v};
}
}  // namespace

std::vector<std::uint8_t> serialize_frame(const Frame& f, const std::vector<std::uint8_t>& payload) {
  if (payload.size() != f.payload_bytes)
    throw std::invalid_argument("serialize_frame: payload size mismatch");
  std::vector<std::uint8_t> out;
  out.reserve(f.frame_bytes());
  put_mac(out, f.dst);
  put_mac(out, f.src);
  out.push_back(static_cast<std::uint8_t>(f.ethertype >> 8));
  out.push_back(static_cast<std::uint8_t>(f.ethertype & 0xFF));
  out.insert(out.end(), payload.begin(), payload.end());
  // Pad to the 64-byte minimum (before FCS: 60 bytes).
  while (out.size() < kMinFrameBytes - kFcsBytes) out.push_back(0);
  const std::uint32_t fcs = crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(fcs >> (8 * i)));
  return out;
}

ParsedFrame parse_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kMinFrameBytes)
    throw std::invalid_argument("parse_frame: short frame");
  ParsedFrame p;
  p.dst = get_mac(bytes.data());
  p.src = get_mac(bytes.data() + 6);
  p.ethertype = static_cast<std::uint16_t>((bytes[12] << 8) | bytes[13]);
  p.payload.assign(bytes.begin() + kMacHeaderBytes, bytes.end() - kFcsBytes);
  std::uint32_t fcs = 0;
  for (int i = 3; i >= 0; --i) fcs = (fcs << 8) | bytes[bytes.size() - 4 + i];
  p.fcs_ok = (fcs == crc32(bytes.data(), bytes.size() - kFcsBytes));
  return p;
}

}  // namespace dtpsim::net
