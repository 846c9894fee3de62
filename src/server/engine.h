// The HTTP/2 server engine.
//
// A full RFC 7540 server endpoint over an abstract byte stream: connection
// preface, SETTINGS exchange, HPACK header coding, stream lifecycle, both
// flow-control scopes, the §5.3 priority scheduler, server push, PING — with
// every deviation axis of the paper's Table III selected by a ServerProfile.
//
// Transport model: the owner feeds client->server bytes into receive() and
// drains server->client bytes from take_output(). The engine is synchronous
// and deterministic; no threads, no wall clock.
//
// Response header blocks are HPACK-encoded per response. A serving loop may
// attach a SharedBlockCache (one per shard) so pristine encoders replay
// blocks a sibling connection already encoded; without one (scans, attacks,
// in-process tests) the engine just encodes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "h2/constants.h"
#include "h2/flow_control.h"
#include "h2/frame.h"
#include "h2/frame_codec.h"
#include "h2/priority_tree.h"
#include "h2/settings.h"
#include "h2/stream.h"
#include "hpack/decoder.h"
#include "hpack/encoder.h"
#include "server/mitigation.h"
#include "server/profile.h"
#include "net/upgrade.h"
#include "server/site.h"
#include "trace/recorder.h"

namespace h2r::server {

/// Prebuilt response header blocks shared by every connection engine on one
/// serving thread (shard). Entries are *static* blocks: encoded by a
/// pristine HPACK encoder that stayed pristine (hpack::Encoder::pristine():
/// empty dynamic table, never resized, no pending size update), so any other
/// pristine engine with the same profile emits the identical bytes. An
/// encoder that never indexes response headers (nginx, Tengine) stays
/// pristine for the whole connection, so every repeated response hits.
/// Keyed by Resource pointer (nullptr = the 404 page); sound because sibling
/// engines share one Site, so pointers are stable. Deliberately lock-free
/// and un-shared across threads — one per shard.
struct SharedBlockCache {
  struct Entry {
    const Resource* resource;
    Bytes block;
  };
  std::vector<Entry> entries;
  /// Each cacheable response an attached engine serves books one of these.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class Http2Server {
 public:
  /// How the connection begins.
  enum class StartMode : std::uint8_t {
    kTls,  ///< TLS + ALPN/NPN happened outside; first bytes are the preface
    kH2c,  ///< cleartext: first bytes are an HTTP/1.1 request, possibly an
           ///< Upgrade: h2c offer (RFC 7540 §3.2)
  };

  /// @p recorder is the optional H2Wiretap sink shared with the client side;
  /// the server records every frame it emits (direction s2c), client
  /// SETTINGS it applies, HPACK table churn, scheduler window stalls and
  /// parse errors. Null disables tracing.
  Http2Server(ServerProfile profile, Site site,
              StartMode mode = StartMode::kTls,
              trace::Recorder* recorder = nullptr);

  /// Shared-ownership variant: the engine aliases @p profile / @p site
  /// instead of deep-copying them, so constructing a connection against an
  /// already-materialized profile+site costs no per-connection heap churn.
  /// core::Target hands its engines non-owning handles on its own fields;
  /// a serving shard shares one owned copy among its engines.
  Http2Server(std::shared_ptr<const ServerProfile> profile,
              std::shared_ptr<const Site> site,
              StartMode mode = StartMode::kTls,
              trace::Recorder* recorder = nullptr);

  /// Rewinds the engine to the just-constructed state of a fresh
  /// connection — parser, HPACK tables, settings, windows, streams and
  /// priority tree all reset, each keeping its storage; the profile and
  /// site are kept. A reset engine is observably identical to a newly
  /// constructed one, minus the allocations.
  void reset();

  /// Reset onto a different profile/site (the scan's per-worker engine slot
  /// serves a different site each time).
  void reset(std::shared_ptr<const ServerProfile> profile,
             std::shared_ptr<const Site> site,
             StartMode mode = StartMode::kTls,
             trace::Recorder* recorder = nullptr);

  /// Feeds client bytes; all complete frames are processed immediately and
  /// any producible response bytes are queued for take_output().
  void receive(std::span<const std::uint8_t> bytes);

  /// Initiates graceful shutdown (§6.8): GOAWAY with the last accepted
  /// stream id and NO_ERROR; in-flight responses complete, new streams are
  /// refused, and the connection dies once drained.
  void shutdown();

  /// True once the h2c upgrade completed (kH2c mode only).
  [[nodiscard]] bool upgraded() const noexcept { return upgraded_; }

  /// True once the client announced a clean close with GOAWAY. The serving
  /// loop uses this to tell a polite EOF (peer said goodbye, then closed)
  /// from an abrupt connection loss when it classifies terminal states.
  [[nodiscard]] bool client_goaway() const noexcept { return client_goaway_; }

  /// Highest client-initiated stream id accepted on this connection —
  /// streams served so far = (id + 1) / 2. Serving-loop bookkeeping.
  [[nodiscard]] std::uint32_t last_client_stream_id() const noexcept {
    return last_client_stream_id_;
  }

  /// True while a graceful shutdown() is draining in-flight streams.
  [[nodiscard]] bool draining() const noexcept { return draining_; }

  /// Opts into recording received frames as c2s wiretap events. In-process
  /// exchanges leave this off — the ClientConnection sharing the recorder
  /// already records its own sends — but when the peer is a real remote
  /// client (the serving loop), the engine is the only party that can put
  /// the client's frames on the tape.
  void record_received_frames(bool on) noexcept { record_received_ = on; }

  /// Attaches the shard's block cache; null (the default) detaches it and
  /// the engine encodes every response. With a cache attached, every
  /// cacheable response books exactly one hit or one miss; it can hit only
  /// while this engine's encoder is pristine, so an engine whose dynamic
  /// table has diverged (aggressive indexing, a peer table resize) books a
  /// miss and encodes. NOT thread-safe: one per shard, by construction
  /// never reached from two threads.
  void set_shared_block_cache(SharedBlockCache* cache) noexcept {
    shared_block_cache_ = cache;
  }

  /// Drains queued server->client bytes.
  [[nodiscard]] Bytes take_output();

  /// Hands the parser's reassembly buffer (keeping any unparsed tail) and
  /// an empty output buffer to the thread's BufferPool, so an engine idling
  /// between connections pins no transport buffers (see
  /// ClientConnection::release_buffers).
  void release_buffers();
  /// Hands a drained output buffer back to the thread's BufferPool, so
  /// steady-state frame emission stops reallocating (the transport loop
  /// calls this after it has shipped the bytes from take_output()).
  void recycle(Bytes buffer) { BufferPool::local().release(std::move(buffer)); }

  /// False once a connection error occurred or GOAWAY was exchanged.
  [[nodiscard]] bool alive() const noexcept { return !dead_; }

  /// The transport under this connection died (net::FaultyTransport's
  /// truncation / disconnect path). No GOAWAY can reach the peer; the
  /// engine just stops. Asserts the death-path invariants: whatever state
  /// the fault interrupted, stream and flow-control accounting must still
  /// be coherent.
  void on_transport_close(const Status& status);

  [[nodiscard]] const ServerProfile& profile() const noexcept { return *profile_; }
  [[nodiscard]] const Site& site() const noexcept { return *site_; }

  // ---- introspection for tests and ablations ---------------------------
  [[nodiscard]] std::size_t active_stream_count() const;
  /// Entries in the stream table: live streams plus closed ones not yet
  /// swept into compact records (fewer than kClosedStreamSweepBatch between
  /// frames, plus any closed stream still pinning response octets).
  [[nodiscard]] std::size_t tracked_stream_count() const noexcept {
    return streams_.size();
  }
  /// Closed streams accumulated before the table sweeps them out.
  static constexpr std::size_t kClosedStreamSweepBatch = 16;
  [[nodiscard]] const h2::PriorityTree& priority_tree() const noexcept {
    return tree_;
  }
  [[nodiscard]] std::int64_t connection_send_window() const noexcept {
    return conn_send_window_.available();
  }
  [[nodiscard]] std::size_t frames_received() const noexcept {
    return frames_received_;
  }
  /// Response octets accepted but not yet deliverable (what a slow-read
  /// attacker pins in server memory — §VI of the paper).
  [[nodiscard]] std::size_t pending_response_octets() const;
  /// Current HPACK decoder dynamic-table occupancy (header-bomb exposure).
  [[nodiscard]] std::size_t decoder_table_octets() const noexcept {
    return decoder_.table().size_octets();
  }

  // ---- mitigation introspection -----------------------------------------
  /// O(1) incremental twin of pending_response_octets() (asserted equal on
  /// the transport-close path) — what the mitigation slow-read budget reads
  /// after every frame — plus its connection-lifetime high-water mark.
  [[nodiscard]] std::size_t pinned_response_octets() const noexcept {
    return pinned_octets_;
  }
  [[nodiscard]] std::size_t peak_pinned_octets() const noexcept {
    return peak_pinned_octets_;
  }
  [[nodiscard]] MitigationLevel mitigation_level() const noexcept {
    return mitigation_level_;
  }
  /// Attack class that first engaged mitigation (kNone when it never did).
  [[nodiscard]] trace::AttackClass suspected_attack() const noexcept {
    return suspected_attack_;
  }

 private:
  struct Stream {
    Stream(std::uint32_t id, std::int64_t send_window, std::int64_t recv_window)
        : sm(id), send_window(send_window), recv_window(recv_window) {}

    h2::StreamStateMachine sm;
    h2::FlowWindow send_window;  ///< server->client DATA budget
    h2::FlowWindow recv_window;  ///< client->server DATA budget (uploads)
    std::size_t uploaded_bytes = 0;
    hpack::HeaderList request_headers;
    hpack::HeaderList response_headers;  ///< an upload's acknowledgement
    bool response_ready = false;
    bool headers_sent = false;
    std::size_t body_size = 0;
    std::size_t body_offset = 0;
    const Resource* resource = nullptr;  // nullptr => synthetic 404 body
    bool is_push = false;
    bool zero_length_emitted = false;
    bool stalled = false;  ///< SmallWindowBehavior::kStall engaged
    bool stall_traced = false;  ///< open kWindowStall event for this stream
    /// Response headers are a pure function of (profile, site, resource):
    /// the encoded block may come from the shard's SharedBlockCache. Never
    /// set for POST (upload-dependent headers) or cookie-churn sites.
    bool cacheable_response = false;
    /// The POST acknowledgement was built into response_headers; every
    /// other response is built at first encode.
    bool upload_response = false;
    /// Cookie-churn serial of this response's set-cookie header; 0 = none.
    std::uint64_t cookie_serial = 0;
    std::size_t opened_at_frame = 0;  ///< frames_received_ at creation

    /// Back to Stream(@p id, @p send, @p recv), except that both header
    /// lists keep their storage and stale contents: every path that opens
    /// a stream rewrites request_headers, and response_headers is read only
    /// after an upload wrote it.
    void rewind(std::uint32_t id, std::int64_t send, std::int64_t recv) {
      hpack::HeaderList request = std::move(request_headers);
      hpack::HeaderList response = std::move(response_headers);
      *this = Stream(id, send, recv);
      request_headers = std::move(request);
      response_headers = std::move(response);
    }
  };
  using StreamTable = std::map<std::uint32_t, Stream>;

  /// What swept (closed, forgotten) streams still owe later frames
  /// (RFC 7540 §5.1): DATA on one is charged against its receive window
  /// before the STREAM_CLOSED reset. A run covers `count` stream ids of one
  /// parity — first, first + 2, ... — that share a receive window, so the
  /// thousands of requests a keep-alive connection has swept take one
  /// record. Receive windows never leave [0, 2^31-1], so 32 bits hold them.
  struct SweptRun {
    std::uint32_t first;
    std::uint32_t count;
    std::uint32_t recv_window;

    [[nodiscard]] std::uint32_t last() const noexcept {
      return first + 2 * (count - 1);
    }
  };
  using SweptRuns = std::vector<SweptRun>;

  // -- frame dispatch (zero-copy: views alias the parser buffer) ----------
  void on_frame(const h2::FrameView& frame);
  void handle_headers(const h2::FrameView& frame);
  void complete_headers(std::uint32_t stream_id,
                        std::span<const std::uint8_t> fragment,
                        bool end_stream,
                        std::optional<h2::PriorityInfo> priority);
  void handle_data(const h2::FrameView& frame);
  void handle_priority(const h2::FrameView& frame);
  void handle_rst_stream(const h2::FrameView& frame);
  void handle_settings(const h2::FrameView& frame);
  void handle_ping(const h2::FrameView& frame);
  void handle_goaway(const h2::FrameView& frame);
  void handle_window_update(const h2::FrameView& frame);
  void handle_continuation(const h2::FrameView& frame);

  // -- request/response ---------------------------------------------------
  void start_response(Stream& stream);
  /// Fills @p headers with the deterministic GET/404 response header list
  /// for @p stream (shared by the eager path and the cache-miss path).
  void build_response_headers(const Stream& stream, hpack::HeaderList& headers);
  /// Encoded response HEADERS block for @p stream: a cache memcpy on the
  /// hot path, a build+encode (and possibly a cache store) otherwise.
  [[nodiscard]] Bytes response_block(Stream& stream);
  void maybe_push(Stream& parent);
  void apply_priority_signal(std::uint32_t stream_id,
                             const h2::PriorityInfo& info, bool from_headers);

  // -- emission -----------------------------------------------------------
  void pump();
  [[nodiscard]] bool stream_eligible(const Stream& s) const;
  [[nodiscard]] std::uint32_t pick_round_robin(bool fcfs);
  /// Serves one frame's worth of work on @p stream_id; returns octets of
  /// DATA consumed against the connection window.
  void serve_one(std::uint32_t stream_id);

  // -- plumbing -----------------------------------------------------------
  void send_connection_preface();
  void send_frame(const h2::Frame& frame);
  /// Emits @p block as HEADERS (+ CONTINUATIONs when it exceeds the peer's
  /// SETTINGS_MAX_FRAME_SIZE, §4.3).
  void send_header_block(std::uint32_t stream_id, Bytes block, bool end_stream);
  /// The profile's @p reaction to a violation; @p debug is the GOAWAY
  /// debug text when the reaction carries one.
  void react(ErrorReaction reaction, std::uint32_t stream_id,
             h2::ErrorCode stream_code, h2::ErrorCode conn_code,
             std::string_view debug);
  void stream_error(std::uint32_t stream_id, h2::ErrorCode code);
  /// Ends the connection with a GOAWAY carrying @p debug, written straight
  /// into the output buffer as send_data_direct writes DATA.
  void connection_error(h2::ErrorCode code, std::string_view debug);
  void close_stream(std::uint32_t stream_id);
  [[nodiscard]] bool tiny_window_mode() const;

  // -- stream table -------------------------------------------------------
  /// Adds Stream(@p id, @p send_window, @p recv_window) to the table,
  /// rewinding a swept stream's map node when one is spare (see
  /// Stream::rewind: the caller rewrites request_headers).
  Stream& open_stream(std::uint32_t id, std::int64_t send_window,
                      std::int64_t recv_window);
  /// Books @p id as a stream refused on arrival: no windows, no request.
  void open_refused(std::uint32_t id, bool end_stream);
  /// The run holding swept stream @p stream_id, or swept_.end().
  [[nodiscard]] SweptRuns::iterator find_swept(std::uint32_t stream_id);
  /// Adds swept stream @p id to the runs, extending a neighbour when the
  /// windows match.
  void add_swept(std::uint32_t id, std::uint32_t recv_window);
  /// Splits @p run so that @p id has a run of its own; returns that run.
  SweptRuns::iterator isolate_swept(SweptRuns::iterator run,
                                    std::uint32_t id);
  /// Moves every closed stream that pins nothing out of streams_ into
  /// swept_. Only called between frames, when no Stream& is held.
  void sweep_closed_streams();
  void maybe_sweep() {
    if (closed_since_sweep_ >= kClosedStreamSweepBatch) sweep_closed_streams();
  }
  /// Makes room for @p n more output octets, from the BufferPool if it can.
  void reserve_output(std::size_t n);
  /// DATA emission fast path: frame header + procedurally generated body
  /// written straight into the output buffer — no Frame, no payload vector.
  void send_data_direct(std::uint32_t stream_id, const Resource* resource,
                        std::size_t offset, std::size_t chunk, bool end_stream);

  // -- mitigation ---------------------------------------------------------
  void pin_octets(std::size_t n);
  void unpin_octets(std::size_t n);
  [[nodiscard]] bool throttled() const noexcept {
    return mitigation_level_ >= MitigationLevel::kThrottle;
  }
  /// Pre-dispatch per-frame accounting: rolls the rate window, bumps the
  /// per-axis counters, refreshes the amortized slow-POST scan.
  void mitigation_on_frame(const h2::FrameView& frame);
  /// Post-dispatch budget check + escalation / release state machine.
  void mitigation_check();
  [[nodiscard]] trace::AttackClass mitigation_violation() const;
  /// Level-2 response: reset the streams pinning resources for @p cls.
  void rst_offenders(trace::AttackClass cls);
  void note_mitigation(MitigationLevel level, trace::AttackClass cls);

  // -- wiretap ------------------------------------------------------------
  /// encoder_.encode with HPACK table-churn trace events (s2c blocks). Only
  /// the encoding endpoint records churn; the peer's decoder replays the
  /// identical instruction stream.
  Bytes encode_block(const hpack::HeaderList& headers);
  void note_hpack_delta(std::uint64_t inserts, std::uint64_t evictions);
  /// Records a kWindowStall for every stream with deliverable work blocked
  /// on flow control; called when the scheduler comes up empty-handed.
  void note_window_stalls();
  void note_window_resume(Stream& stream);

  std::shared_ptr<const ServerProfile> profile_;
  std::shared_ptr<const Site> site_;

  h2::FrameParser parser_;
  hpack::Encoder encoder_;  ///< server->client header blocks
  hpack::Decoder decoder_;  ///< client->server header blocks
  h2::SettingsMap our_settings_;
  h2::SettingsMap peer_settings_;

  h2::FlowWindow conn_send_window_;  ///< server->client DATA budget
  h2::FlowWindow conn_recv_window_;  ///< client->server DATA budget

  // The stream table. streams_ holds live streams, plus closed ones until
  // kClosedStreamSweepBatch of them have built up; the sweep then keeps
  // only their ids and receive windows (swept_, runs sorted by parity,
  // then first id), so every walk
  // over streams_ costs O(live) however old the connection is. Swept
  // streams' send windows matter only to a SETTINGS_INITIAL_WINDOW_SIZE
  // raise, which shifts them all by the same delta, so their maximum
  // stands in for them all. The freed map nodes are reused for new streams.
  StreamTable streams_;
  SweptRuns swept_;
  h2::FlowWindow swept_send_peak_{0};  ///< max swept send window, if any
  std::vector<StreamTable::node_type> spare_nodes_;
  std::size_t closed_since_sweep_ = 0;
  h2::PriorityTree tree_;

  std::size_t preface_matched_ = 0;
  std::uint32_t last_client_stream_id_ = 0;
  std::uint32_t next_push_stream_id_ = 2;
  std::uint32_t last_round_robin_ = 0;
  std::uint64_t cookie_counter_ = 0;
  std::size_t frames_received_ = 0;

  // Mitigation state (see server/mitigation.h). The pinned-octet pair is
  // maintained unconditionally (two adds per response lifecycle); the rest
  // only moves when profile_->mitigation.enabled.
  std::size_t pinned_octets_ = 0;
  std::size_t peak_pinned_octets_ = 0;
  std::size_t last_progress_frame_ = 0;  ///< frames_received_ at last delivery
  MitigationLevel mitigation_level_ = MitigationLevel::kNone;
  trace::AttackClass suspected_attack_ = trace::AttackClass::kNone;
  std::size_t level_started_frame_ = 0;
  std::size_t last_violation_frame_ = 0;
  std::size_t window_started_frame_ = 0;
  std::uint32_t resets_in_window_ = 0;
  std::uint32_t control_in_window_ = 0;
  std::uint32_t priority_in_window_ = 0;
  bool slow_post_suspect_ = false;  ///< amortized O(streams) scan result

  hpack::HeaderList response_scratch_;  ///< deferred header list, reused
  /// Decode target for request header blocks; swapped into the stream it
  /// opens, so it always holds some earlier stream's list storage.
  hpack::HeaderList request_scratch_;
  SharedBlockCache* shared_block_cache_ = nullptr;

  // CONTINUATION reassembly state.
  std::optional<std::uint32_t> continuation_stream_;
  Bytes continuation_fragment_;
  bool continuation_end_stream_ = false;
  std::optional<h2::PriorityInfo> continuation_priority_;

  h2::Frame preface_settings_ = h2::make_settings({});  ///< reused entries
  ByteWriter out_;
  bool dead_ = false;
  bool client_goaway_ = false;
  bool draining_ = false;  ///< graceful shutdown in progress
  bool record_received_ = false;  ///< tape c2s frames (real-socket serving)

  // h2c bootstrap state (StartMode::kH2c).
  StartMode start_mode_;
  bool upgraded_ = false;
  std::string http1_buffer_;

  trace::Recorder* recorder_ = nullptr;  ///< H2Wiretap sink; null = off
};

}  // namespace h2r::server
