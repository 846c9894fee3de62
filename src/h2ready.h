// Umbrella header for the h2ready library.
//
// Pulls in the complete public API: the HTTP/2 + HPACK protocol stack, the
// behaviour-profiled server engine, the H2Scope probe suite, the synthetic
// Alexa corpus and scanner, and the page-load simulator. Include this when
// prototyping; production code should include the specific module headers.
#pragma once

// Protocol substrate.
#include "h2/constants.h"          // IWYU pragma: export
#include "h2/flow_control.h"       // IWYU pragma: export
#include "h2/frame.h"              // IWYU pragma: export
#include "h2/frame_codec.h"        // IWYU pragma: export
#include "h2/priority_tree.h"      // IWYU pragma: export
#include "h2/settings.h"           // IWYU pragma: export
#include "h2/stream.h"             // IWYU pragma: export
#include "hpack/decoder.h"         // IWYU pragma: export
#include "hpack/encoder.h"         // IWYU pragma: export
#include "hpack/huffman.h"         // IWYU pragma: export

// Simulated network.
#include "net/alpn.h"              // IWYU pragma: export
#include "net/clock.h"             // IWYU pragma: export
#include "net/path.h"              // IWYU pragma: export
#include "net/transport.h"         // IWYU pragma: export
#include "net/upgrade.h"           // IWYU pragma: export

// Server engine and profiles.
#include "server/engine.h"         // IWYU pragma: export
#include "server/profile.h"        // IWYU pragma: export
#include "server/site.h"           // IWYU pragma: export

// H2Scope.
#include "core/client.h"           // IWYU pragma: export
#include "core/probes.h"           // IWYU pragma: export
#include "core/report.h"           // IWYU pragma: export

// Measurement campaign.
#include "corpus/marginals.h"      // IWYU pragma: export
#include "corpus/population.h"     // IWYU pragma: export
#include "corpus/scan.h"           // IWYU pragma: export
#include "pageload/loader.h"       // IWYU pragma: export
#include "pageload/page.h"         // IWYU pragma: export
