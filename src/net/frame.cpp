#include "net/frame.h"

#include "common/check.h"
#include "common/wire.h"
#include "obs/metric_names.h"
#include "obs/obs.h"

namespace mlsim::net {

std::string frame_header(std::string_view payload) {
  return wire::seal_header(kFrameMagic, payload);
}

void send_frame(TcpConn& conn, std::string_view header,
                std::string_view payload) {
  conn.send_all({header, payload});
  MLSIM_COUNTER_ADD(obs::names::kNetFramesSent, 1);
}

void send_frame(TcpConn& conn, std::string_view payload) {
  send_frame(conn, frame_header(payload), payload);
}

bool recv_frame(TcpConn& conn, std::string& payload) {
  MLSIM_HIST_TIMER(obs::names::kNetFrameRecvNs);
  char header[wire::kEnvelopeBytes];
  if (!conn.recv_all(header, sizeof(header), /*eof_ok=*/true)) return false;
  try {
    // The header is checked before its size field is trusted with an
    // allocation, and the payload is checksummed where it landed.
    const wire::Header h = wire::open_header(
        kFrameMagic, std::string_view(header, sizeof(header)), conn.peer());
    if (h.payload_size > kMaxFramePayload) {
      throw IoError("oversized frame (" + std::to_string(h.payload_size) +
                    " bytes) from " + conn.peer());
    }
    payload.resize(h.payload_size);
    conn.recv_all(payload.data(), payload.size());
    wire::verify_payload(h, payload, conn.peer());
  } catch (const CheckError& e) {
    // On a socket, corruption is a transport fault: the peer (or the path)
    // mangled bytes in flight, so it maps to the transport error type.
    throw IoError(std::string("corrupt frame: ") + e.what());
  }
  MLSIM_COUNTER_ADD(obs::names::kNetFramesReceived, 1);
  return true;
}

}  // namespace mlsim::net
