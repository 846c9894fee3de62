// H2Scope's client-side HTTP/2 endpoint.
//
// Unlike a browser, this client exists to send *arbitrary* — including
// deliberately malformed — frame sequences and to record everything the
// server sends back, in arrival order, with wire-level sizes. Every probe
// in probes.h is built from this vocabulary.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "h2/constants.h"
#include "h2/frame.h"
#include "h2/flow_control.h"
#include "h2/frame_codec.h"
#include "h2/settings.h"
#include "hpack/decoder.h"
#include "hpack/encoder.h"
#include "trace/recorder.h"
#include "util/bytes.h"
#include "util/status.h"

namespace h2r::core {

/// Why a connection stopped: the probe-side terminal-error taxonomy. A scan
/// needs to distinguish "the site finished talking" from "the transport died
/// under us" from "the site sent bytes that are not HTTP/2".
enum class ClientTerminal : std::uint8_t {
  kQuiescent = 0,   ///< no terminal fault: idle, or cleanly closed (GOAWAY)
  kTransportError,  ///< the transport died (truncation / disconnect)
  kProtocolError,   ///< inbound bytes violated HTTP/2 framing (parse error),
                    ///< or a header block failed to decode under
                    ///< ClientOptions::Keep::kCompletions
};

std::string_view to_string(ClientTerminal t) noexcept;

/// The terminal classification plus the evidence behind it.
struct TerminalInfo {
  ClientTerminal state = ClientTerminal::kQuiescent;
  Status status;  ///< the underlying error; OK while kQuiescent
  /// Octet offset into the server->client stream: for kProtocolError the
  /// start of the offending frame, for kTransportError the octets received
  /// before the transport died.
  std::uint64_t byte_offset = 0;
  std::uint8_t frame_type = 0;  ///< offending frame's raw type octet
  bool frame_type_known = false;
};

/// One frame as received from the server, with observation metadata.
struct ReceivedFrame {
  h2::Frame frame;
  std::size_t sequence = 0;          ///< arrival index on this connection
  /// Payload octets as parsed: the HPACK fragment size for HEADERS /
  /// PUSH_PROMISE (whole reassembled block on the final CONTINUATION) and
  /// the DATA payload size — authoritative even under Keep::kFrameSizes,
  /// where frame's DATA payload is empty.
  std::size_t header_block_size = 0;
  std::optional<hpack::HeaderList> headers;  ///< decoded block, if any
};

struct ClientOptions {
  /// SETTINGS entries announced in the connection preface. The probes use
  /// this to plant SETTINGS_INITIAL_WINDOW_SIZE = 1 / 0 / 2^31-1 etc.
  std::vector<std::pair<h2::SettingId, std::uint32_t>> settings;
  /// Replenish the connection window as DATA arrives. Algorithm 1 switches
  /// this off to deplete the connection window (§III-C step 1).
  bool auto_connection_window_update = true;
  /// Replenish per-stream windows as DATA arrives.
  bool auto_stream_window_update = true;
  /// What the connection keeps of each received frame. Every mode keeps
  /// the per-stream records (data_received(), stream_complete(), rst_on()),
  /// the server's SETTINGS, the GOAWAY and the flow-control windows, and
  /// every mode runs each header block through the HPACK decoder so the
  /// dynamic table stays in sync with the server's encoder.
  enum class Keep : std::uint8_t {
    /// Every frame as a ReceivedFrame in events(), with its payload and its
    /// decoded header list, plus pushes(). What tests and SocketClient use.
    kFrames,
    /// kFrames without DATA payload octets: the probes only ever look at
    /// DATA *sizes* (ReceivedFrame::header_block_size and data_received()),
    /// so the scan skips copying response bodies out of the parser buffer.
    kFrameSizes,
    /// No events() and no pushes(): header blocks decode into one scratch
    /// list the connection reuses, so state grows with streams, not with
    /// frames or octets received. A block that fails to decode ends the
    /// connection as ClientTerminal::kProtocolError without completing its
    /// stream. The load generator (netio::run_load) runs in this mode.
    kCompletions,
  };
  Keep keep = Keep::kFrames;
  std::string authority = "example.test";
  /// H2Wiretap sink; null disables tracing. When set, the constructor marks
  /// a connection start and every frame the client puts on the wire — plus
  /// parse errors, applied server SETTINGS and HPACK table churn — is
  /// recorded. The server side shares the same sink (see core::Target), so
  /// the recorder sees the full duplex conversation in causal order.
  trace::Recorder* recorder = nullptr;

  /// Replaces (or plants) the SETTINGS_INITIAL_WINDOW_SIZE entry announced
  /// in the preface. Returns *this for chaining.
  ClientOptions& with_initial_window(std::uint32_t window);

  /// The slow-read attacker stance (§VI / attack::AttackScenario), promoted
  /// from the ad-hoc idiom in bench_ablation_dos: announce a tiny per-stream
  /// window and never replenish stream windows — the client "never reads".
  /// Connection-window replenishment stays on: the per-stream window is
  /// already the binding constraint, and starving the connection window too
  /// would throttle the keep-alive traffic the scenario needs.
  static ClientOptions slow_read_stance(std::uint32_t window = 1);
};

class ClientConnection {
 public:
  explicit ClientConnection(ClientOptions options = {});

  /// Rewinds to the just-constructed state (empty parser, HPACK tables,
  /// observation log and per-stream records) while keeping the options and
  /// the capacity of every container; the preface and initial SETTINGS are
  /// re-emitted. Observably identical to a newly constructed connection,
  /// minus the allocations.
  void reset();

  /// reset() with replacement options — the scan's per-worker scratch
  /// reuses one client across sites whose recorder wiring differs.
  void reset(ClientOptions options);

  /// Flip the auto-replenish behaviours mid-connection. The coalesced probe
  /// scheduler reuses one connection across probes that want different
  /// flow-control stances.
  void set_auto_connection_window_update(bool on) noexcept {
    options_.auto_connection_window_update = on;
  }
  void set_auto_stream_window_update(bool on) noexcept {
    options_.auto_stream_window_update = on;
  }

  // ---- transport --------------------------------------------------------
  /// Drains queued client->server bytes (preface + frames).
  [[nodiscard]] Bytes take_output();
  /// Hands the parser's reassembly buffer (keeping any unparsed tail) and
  /// an empty output buffer to the thread's BufferPool, so an endpoint
  /// idling between connections pins no transport buffers. Observations
  /// stay readable. EndpointLease calls this when a connection ends.
  void release_buffers();
  /// Hands a drained output buffer back to the thread's BufferPool (see
  /// Http2Server::recycle).
  void recycle(Bytes buffer) { BufferPool::local().release(std::move(buffer)); }
  /// Feeds server->client bytes; frames are parsed and recorded.
  void receive(std::span<const std::uint8_t> bytes);
  /// False after a GOAWAY was received or a parse error poisoned the link.
  [[nodiscard]] bool alive() const noexcept { return !dead_; }
  /// The transport under this connection is gone (net::FaultyTransport's
  /// truncation / disconnect path). Marks the connection dead with a
  /// kTransportError terminal; a GOAWAY or parse error seen earlier wins.
  void on_transport_close(const Status& status);

  /// Client-initiated clean close (§6.8): queues GOAWAY with @p code and
  /// marks the connection done. The terminal stays kQuiescent — this is
  /// the load generator's "I have no more requests" path, not an error.
  /// The GOAWAY still has to be drained via take_output() and shipped.
  void close(h2::ErrorCode code = h2::ErrorCode::kNoError);

  // ---- actions ----------------------------------------------------------
  /// Opens a stream with a GET for @p path; returns the stream id.
  std::uint32_t send_request(const std::string& path,
                             std::optional<h2::PriorityInfo> priority = {},
                             bool end_stream = true);

  /// Opens a POST stream carrying @p body. The body is streamed in DATA
  /// frames under proper client-side flow control: chunks respect the
  /// server's announced stream window and connection window, and stalled
  /// uploads resume when the server's WINDOW_UPDATEs arrive.
  std::uint32_t send_request_with_body(const std::string& path, Bytes body,
                                       const std::string& content_type =
                                           "application/octet-stream");

  /// Octets of queued upload bodies not yet shipped (flow-control blocked).
  [[nodiscard]] std::size_t pending_upload_bytes() const;

  /// Escape hatch: serialize any frame as-is (malformed probes).
  void send_frame(const h2::Frame& frame);

  void send_ping(std::array<std::uint8_t, 8> opaque);
  void send_window_update(std::uint32_t stream_id, std::uint32_t increment);
  void send_priority(std::uint32_t stream_id, const h2::PriorityInfo& info);
  void send_rst_stream(std::uint32_t stream_id, h2::ErrorCode code);
  void send_settings(
      std::vector<std::pair<h2::SettingId, std::uint32_t>> entries);

  // ---- observations -----------------------------------------------------
  [[nodiscard]] const std::vector<ReceivedFrame>& events() const noexcept {
    return events_;
  }

  /// Frames of @p type on @p stream_id, in arrival order.
  [[nodiscard]] std::vector<const ReceivedFrame*> frames_of(
      h2::FrameType type,
      std::optional<std::uint32_t> stream_id = std::nullopt) const;
  /// The first of frames_of(type, stream_id), without building the list;
  /// null when there is none.
  [[nodiscard]] const ReceivedFrame* first_frame_of(
      h2::FrameType type,
      std::optional<std::uint32_t> stream_id = std::nullopt) const;

  /// Server's advertised SETTINGS (first non-ACK SETTINGS frame).
  [[nodiscard]] const h2::SettingsMap& server_settings() const noexcept {
    return server_settings_;
  }
  [[nodiscard]] bool server_settings_received() const noexcept {
    return server_settings_received_;
  }
  /// Raw entry count of the server's first SETTINGS frame (0 = the "NULL"
  /// rows of Tables V-VII: a bare, empty SETTINGS frame).
  [[nodiscard]] std::size_t server_settings_entry_count() const noexcept {
    return server_settings_entry_count_;
  }

  /// Connection-scoped WINDOW_UPDATE increments received before the first
  /// request was sent (the Nginx §V-C idiom).
  [[nodiscard]] std::uint64_t preemptive_window_bonus() const noexcept {
    return preemptive_window_bonus_;
  }

  [[nodiscard]] bool goaway_received() const noexcept { return goaway_.has_value(); }
  [[nodiscard]] const std::optional<h2::GoawayPayload>& goaway() const {
    return goaway_;
  }
  /// RST_STREAM code received on @p stream_id, if any.
  [[nodiscard]] std::optional<h2::ErrorCode> rst_on(std::uint32_t stream_id) const;

  /// Total DATA payload octets received on @p stream_id.
  [[nodiscard]] std::size_t data_received(std::uint32_t stream_id) const;
  /// True once END_STREAM was seen on @p stream_id.
  [[nodiscard]] bool stream_complete(std::uint32_t stream_id) const;
  /// Decoded response headers for @p stream_id (first HEADERS), if seen.
  [[nodiscard]] std::optional<hpack::HeaderList> response_headers(
      std::uint32_t stream_id) const;
  /// Streams promised to us via PUSH_PROMISE, with their request headers,
  /// in ascending promised-stream order.
  using PushList = std::vector<std::pair<std::uint32_t, hpack::HeaderList>>;
  [[nodiscard]] const PushList& pushes() const { return pushed_; }

  [[nodiscard]] std::uint32_t last_stream_id() const noexcept {
    return next_stream_id_ >= 2 ? next_stream_id_ - 2 : 0;
  }

  /// The wiretap sink this connection records into (null when off).
  [[nodiscard]] trace::Recorder* recorder() const noexcept {
    return options_.recorder;
  }

  /// Terminal classification: why (if at all) this connection stopped.
  [[nodiscard]] const TerminalInfo& terminal() const noexcept {
    return terminal_;
  }

  /// The decoder for server header blocks; its table mirrors the server's
  /// encoder table in every Keep mode.
  [[nodiscard]] const hpack::Decoder& decoder() const noexcept {
    return decoder_;
  }

 private:
  /// Queues the connection preface and the initial SETTINGS frame.
  void send_preface();
  void on_frame(const h2::FrameView& view);
  /// Applies @p view to the connection state; @p ev, when not null, is the
  /// event being recorded for it (null under Keep::kCompletions).
  void apply_frame(const h2::FrameView& view, ReceivedFrame* ev);
  /// Decodes one complete header block into @p ev's list, or into the
  /// scratch list when @p ev is null. A failure leaves @p ev without a list,
  /// or, with no event to carry the evidence, ends the connection as a
  /// protocol error and returns false.
  bool decode_block(std::span<const std::uint8_t> block,
                    const h2::FrameView& view, ReceivedFrame* ev);
  /// Marks the connection dead with a kProtocolError terminal.
  void fail_protocol(Status status, std::uint64_t byte_offset,
                     std::uint8_t frame_type, bool frame_type_known);
  /// encoder_.encode with HPACK table-churn trace events. Only the encoding
  /// endpoint records churn — the peer's decoder replays the identical
  /// instruction stream, so recording both sides would double-count.
  Bytes encode_block(const hpack::HeaderList& headers);
  void note_hpack_delta(trace::Direction dir, std::uint64_t inserts,
                        std::uint64_t evictions);

  /// What a stream's DATA and END_STREAM told us.
  struct StreamRecord {
    std::size_t data_bytes = 0;  ///< DATA payload octets received
    bool complete = false;       ///< END_STREAM seen
  };
  /// Emits a GET/POST request's HEADERS from request_headers_.
  void send_request_headers(std::uint32_t id, bool end_stream,
                            std::optional<h2::PriorityInfo> priority);

  ClientOptions options_;
  h2::FrameParser parser_;
  hpack::Encoder encoder_;
  hpack::Decoder decoder_;
  h2::SettingsMap server_settings_;
  bool server_settings_received_ = false;
  std::size_t server_settings_entry_count_ = 0;

  std::uint32_t next_stream_id_ = 1;
  bool sent_any_request_ = false;
  bool response_seen_ = false;
  std::uint64_t preemptive_window_bonus_ = 0;

  // Per-stream observations, each a vector sorted by stream id: streams
  // mostly arrive in id order, so recording one is usually an append, and
  // the vectors keep their storage across reset(). RSTs get their own
  // vector, which is usually empty, so rst_on() usually costs nothing.
  std::vector<ReceivedFrame> events_;
  std::vector<std::pair<std::uint32_t, StreamRecord>> records_;
  std::vector<std::pair<std::uint32_t, h2::ErrorCode>> rst_;
  PushList pushed_;
  std::uint32_t last_promised_id_ = 0;  ///< highest decoded PUSH_PROMISE id
  hpack::HeaderList request_headers_;  ///< scratch list for send_request
  hpack::HeaderList decoded_headers_;  ///< Keep::kCompletions decode target
  std::optional<h2::GoawayPayload> goaway_;

  // Reassembly of server header blocks split across CONTINUATIONs (§4.3).
  std::optional<std::uint32_t> continuation_stream_;
  Bytes continuation_buffer_;
  bool continuation_end_stream_ = false;

  // Upload (client->server DATA) flow control state.
  struct Upload {
    Bytes body;
    std::size_t offset = 0;
    h2::FlowWindow window;  ///< stream-scope budget, from server SETTINGS
  };
  void flush_uploads();
  std::map<std::uint32_t, Upload> uploads_;
  h2::FlowWindow upload_conn_window_{h2::kDefaultInitialWindowSize};
  std::uint32_t upload_initial_window_ = h2::kDefaultInitialWindowSize;

  h2::Frame preface_settings_ = h2::make_settings({});  ///< reused entries
  ByteWriter out_;
  bool dead_ = false;
  TerminalInfo terminal_;
};

}  // namespace h2r::core
