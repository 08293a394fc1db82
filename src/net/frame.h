// RPC framing: one wire envelope (common/wire.h) per message, sent as-is
// over a TcpConn. The sender writes the envelope header and the payload in
// one gather write, so a frame is never copied into an enveloped buffer;
// a payload sent to many peers (the coordinator's Welcome) has its header
// computed once. The receiver reads the fixed-size envelope header first,
// validates magic/version and the declared payload size against a hard cap,
// then reads the payload straight into the caller's buffer and checksums it
// there — a truncated, corrupt, or oversized frame surfaces as a typed
// IoError naming the peer, never a hang or an out-of-bounds read
// (docs/DISTRIBUTED.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/socket.h"

namespace mlsim::net {

/// Frame envelope magic ("MLFP"). Distinct from the checkpoint magics so a
/// checkpoint file piped at a socket is rejected on the first 4 bytes.
inline constexpr std::uint32_t kFrameMagic = 0x4d4c4650;

/// Ceiling on a single frame's payload. Generous (a shipped trace is the
/// largest message) but finite, so a garbage size field cannot drive an
/// unbounded allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// The envelope header of a frame carrying `payload`. Compute it once to
/// send one payload to many peers.
std::string frame_header(std::string_view payload);

/// Send `payload` as one frame under `header`, which must be
/// frame_header(payload).
void send_frame(TcpConn& conn, std::string_view header,
                std::string_view payload);

/// Seal `payload` in the wire envelope and send it.
void send_frame(TcpConn& conn, std::string_view payload);

/// Receive one frame's payload into `payload`, reusing its storage. Blocks
/// until a full frame arrives; call after conn.readable() to bound the
/// wait. Returns false on clean EOF at a frame boundary; throws IoError on
/// transport failure, EOF mid-frame, or an envelope that fails validation
/// (bad magic/version/size/checksum), leaving `payload` unspecified.
bool recv_frame(TcpConn& conn, std::string& payload);

}  // namespace mlsim::net
