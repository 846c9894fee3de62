// Captured HTTP/2 traffic and the per-layer replays run over it.
//
// A capture is one connection's conversation served in-process over the
// lockstep transport, with both endpoints tapped: every client->server
// delivery and the server's output right after it. The serve workloads
// check that a real socket exchange matches this lockstep conversation, so
// a capture is the workload's traffic. Replays feed the captured octets
// back through one layer's public functions at a time, inside spans:
//
//   h2.parse        h2::FrameParser over both directions
//   hpack.decode    hpack::Decoder over the request header blocks
//   hpack.encode    hpack::Encoder over the response header lists
//   h2.serialize    h2::serialize_frame_into over the response frames
//   trace.record    trace::RingRecorder::record_frame over every frame
//   server.engine   server::Http2Server::receive + take_output
//   netio.*         the serving loop's per-connection stack over loopback
//                   TCP: accept, SocketTransport + net::ExchangeDriver +
//                   engine (recv, engine, sendmsg), tape flush and close
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "h2/frame.h"
#include "hpack/encoder.h"
#include "hpack/header_field.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"
#include "util/bytes.h"

namespace perfbench {

/// One client->server delivery and the server's output right after it.
struct Piece {
  h2r::Bytes c2s;
  h2r::Bytes s2c;
  int requests = 0;  ///< client streams opened by this delivery
};

struct Capture {
  std::vector<Piece> pieces;
  int requests = 0;
};

struct Endpoints {
  std::shared_ptr<const h2r::server::ServerProfile> profile;
  std::shared_ptr<const h2r::server::Site> site;
};

/// Serves @p requests GETs of "/" on one lockstep connection, at most
/// @p window in flight, then closes with GOAWAY. Empty on a failed
/// exchange.
Capture capture_connection(const Endpoints& ends, int requests, int window);

/// The frames and header blocks of a capture, parsed once (untimed).
struct Analysis {
  std::vector<h2r::h2::Frame> c2s_frames, s2c_frames;
  std::vector<std::size_t> c2s_lengths, s2c_lengths;  ///< wire octets
  std::vector<h2r::Bytes> c2s_blocks;                 ///< request blocks
  std::vector<h2r::hpack::HeaderList> s2c_lists;      ///< response headers
  std::size_t pushes = 0;                             ///< PUSH_PROMISEs
  std::string error;                                  ///< empty when valid
};

/// Parses @p capture (and fills each piece's request count).
Analysis analyze(Capture& capture);

/// Per-unit cost of one replayed layer: the median over repetitions of
/// the replay's span time, divided by the units it processed.
struct StageCost {
  double ns_per_unit = 0;
  std::uint64_t units = 0;
};

StageCost replay_parse(const std::vector<const Capture*>& caps, int reps);
StageCost replay_decode(const std::vector<const Analysis*>& an, int reps);
/// @p policies[i] is the response indexing policy of @p an[i]'s server.
StageCost replay_encode(const std::vector<const Analysis*>& an,
                        const std::vector<h2r::hpack::IndexingPolicy>& policies,
                        int reps);
StageCost replay_serialize(const std::vector<const Analysis*>& an, int reps);
StageCost replay_record(const std::vector<const Analysis*>& an, int reps);

/// The engine replay of one or more captured connections.
struct EngineCost {
  double us_per_req = 0;
  double us_per_req_first1k = 0;  ///< requests 1..1000 of each connection
  double us_per_req_last1k = 0;   ///< the last 1000 requests of each
  double allocs_per_req = 0;
  /// Heap blocks the engine still holds once every response completed,
  /// per request served (state that grows with connection age).
  double retained_blocks_per_req = 0;
};
EngineCost replay_engine(const std::vector<const Capture*>& caps,
                         const Endpoints& ends, int reps);

/// The socket replay: the captured conversations served by the serving
/// loop's per-connection stack (SocketTransport + ExchangeDriver +
/// Http2Server with its always-on tape) over loopback TCP, the client side
/// written and drained by the replay. Returns the server side's
/// microseconds per request: netio.accept (accept + stack construction),
/// netio.drive (recv + engine + tape + sendmsg) and netio.close (EOF, tape
/// flush, close). Negative when the replayed server's output diverged from
/// the capture.
double replay_netio(const std::vector<const Capture*>& caps,
                    const Endpoints& ends, int reps);

}  // namespace perfbench
