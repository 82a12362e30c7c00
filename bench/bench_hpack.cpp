// hpack_codec / http2_framing — wall-clock microbenchmarks for the
// protocol substrate: HPACK encode/decode, Huffman coding, frame parsing,
// and a full in-process request/response round trip.  These quantify the
// "minor changes to HTTP" claim at the implementation level: the SWW
// extension adds no per-request work at all.
//
// Timed kernels land in the tolerance-gated "wall" section; the byte
// counts (block sizes, wire sizes, the 6-byte SETTINGS entry) are modeled
// metrics and gate exactly.
#include <cstdio>
#include <string>

#include "core/page_builder.hpp"
#include "hpack/hpack.hpp"
#include "hpack/huffman.hpp"
#include "http2/connection.hpp"
#include "net/pump.hpp"
#include "obs/bench.hpp"
#include "oracles/hpack.hpp"
#include "oracles/http2.hpp"
#include "util/rng.hpp"

namespace {

using namespace sww;

hpack::HeaderList TypicalRequest() {
  return {{":method", "GET", false},
          {":scheme", "https", false},
          {":path", "/landscape", false},
          {":authority", "sww.local", false},
          {"accept", "text/html", false},
          {"user-agent", "sww-client/1.0", false}};
}

/// Reads `sink` after the timed loops so the kernels cannot be elided.
void hpack_codec(sww::obs::bench::State& state) {
  std::printf("HPACK + Huffman codec kernels (typical SWW request)\n\n");
  std::size_t sink = 0;

  hpack::Encoder encoder;
  const hpack::HeaderList headers = TypicalRequest();
  // First encode outside the loop: the steady state (fully HPACK-indexed
  // block) is what every request after the first pays.
  const std::size_t first_block = encoder.EncodeBlock(headers).size();
  state.Time("encode_request", [&] { sink += encoder.EncodeBlock(headers).size(); });
  const util::Bytes block = encoder.EncodeBlock(headers);
  state.Modeled("request_block_first_bytes", static_cast<double>(first_block));
  state.Modeled("request_block_indexed_bytes", static_cast<double>(block.size()));

  hpack::Decoder decoder;
  state.Time("decode_request", [&] {
    auto decoded = decoder.DecodeBlock(block);
    sink += decoded.ok() ? decoded.value().size() : 0;
  });

  const std::string prompt = core::MakeLandscapePrompt(1);
  util::Bytes encoded;
  hpack::HuffmanEncode(prompt, encoded);
  state.Modeled("huffman_prompt_bytes", static_cast<double>(prompt.size()));
  state.Modeled("huffman_encoded_bytes", static_cast<double>(encoded.size()));
  state.Time("huffman_encode", [&] {
    util::Bytes out;
    hpack::HuffmanEncode(prompt, out);
    sink += out.size();
  });
  state.Time("huffman_decode", [&] {
    auto decoded = hpack::HuffmanDecode(encoded);
    sink += decoded.ok() ? decoded.value().size() : 0;
  });
  // The retired bit-at-a-time trie decoder, timed on the same input: the
  // before/after of the FSM fast lane, visible in every BENCH JSON.
  state.Time("huffman_decode_trie", [&] {
    auto decoded = oracles::HuffmanDecodeTrie(encoded);
    sink += decoded.ok() ? decoded.value().size() : 0;
  });
  // Differential identity, gated exactly: FSM and trie must agree on a
  // deterministic corpus of valid and corrupted inputs.
  {
    util::Rng rng(0x53575721u);
    std::size_t mismatches = 0;
    for (int i = 0; i < 512; ++i) {
      util::Bytes blob(rng.NextIndex(64), 0);
      for (auto& b : blob) b = static_cast<std::uint8_t>(rng.NextBounded(256));
      auto fsm = hpack::HuffmanDecode(blob);
      auto trie = oracles::HuffmanDecodeTrie(blob);
      if (fsm.ok() != trie.ok() ||
          (fsm.ok() && fsm.value() != trie.value())) {
        ++mismatches;
      }
    }
    state.Modeled("huffman_fsm_trie_mismatches", static_cast<double>(mismatches));
  }

  state.Check(sink > 0, "codec kernels produced no output");
  std::printf("request block: %zu B first, %zu B indexed; prompt %zu B -> "
              "%zu B Huffman\n",
              first_block, block.size(), prompt.size(), encoded.size());
}
SWW_BENCHMARK(hpack_codec);

void http2_framing(sww::obs::bench::State& state) {
  std::printf("HTTP/2 framing + connection kernels\n\n");
  std::size_t sink = 0;

  for (std::size_t payload_size : {std::size_t{64}, std::size_t{1024},
                                   std::size_t{16384}}) {
    util::Bytes payload(payload_size, 0x42);
    const util::Bytes wire =
        oracles::SerializeFrame(oracles::MakeDataFrame(1, payload, false));
    state.Modeled("data_frame_wire_bytes_" + std::to_string(payload_size),
                  static_cast<double>(wire.size()));
    state.Time("frame_parse_" + std::to_string(payload_size), [&] {
      http2::FrameParser parser;
      parser.Feed(wire);
      auto frame = parser.Next();
      sink += frame.ok() && frame.value().has_value()
                  ? frame.value()->payload.size()
                  : 0;
    });
  }

  // The entire per-connection cost of the SWW extension: one extra
  // 6-byte SETTINGS entry, serialized once.
  const util::Bytes settings_wire = oracles::SerializeFrame(
      http2::MakeSettingsFrame(
          {{http2::kSettingsGenAbility, http2::kGenAbilityFull}}));
  state.Modeled("gen_ability_settings_frame_bytes",
                static_cast<double>(settings_wire.size()));
  state.Time("settings_frame_gen_ability", [&] {
    sink += oracles::SerializeFrame(http2::MakeSettingsFrame(
                                      {{http2::kSettingsGenAbility,
                                        http2::kGenAbilityFull}}))
                .size();
  });

  state.Time("connection_handshake", [&] {
    http2::Connection::Options options;
    options.local_settings.set_gen_ability(http2::kGenAbilityFull);
    http2::Connection client(http2::Connection::Role::kClient, options);
    http2::Connection server(http2::Connection::Role::kServer, options);
    client.StartHandshake();
    server.StartHandshake();
    net::DirectLinkExchange(client, server);
    sink += client.generative_mode() ? 1 : 0;
  });

  {
    http2::Connection::Options options;
    options.local_settings.set_enable_push(false);
    http2::Connection client(http2::Connection::Role::kClient, options);
    http2::Connection server(http2::Connection::Role::kServer, options);
    client.StartHandshake();
    server.StartHandshake();
    net::DirectLinkExchange(client, server);
    const hpack::HeaderList request = TypicalRequest();
    const util::Bytes body(1024, 0x51);
    state.Time("request_response_round_trip", [&] {
      auto stream_id = client.SubmitRequest(request, {});
      net::DirectLinkExchange(client, server);
      (void)server.SubmitHeaders(stream_id.value(),
                                 {{":status", "200", false}}, false);
      (void)server.SubmitData(stream_id.value(), body, true);
      net::DirectLinkExchange(client, server);
      client.ReleaseStream(stream_id.value());
      server.ReleaseStream(stream_id.value());
      sink += 1;
    });
  }

  state.Check(sink > 0, "framing kernels produced no output");
  std::printf("SETTINGS frame with GEN_ABILITY: %zu B on the wire\n",
              settings_wire.size());
}
SWW_BENCHMARK(http2_framing);

}  // namespace
