package streamha_test

// Wire-path microbenchmarks: the frame codec on the TCP path and the
// in-memory latency scheduler.
//
//	go test -bench=BenchmarkWire -benchmem
//
// The encode/decode benchmarks compare the length-prefixed binary codec
// against the seed's gob framing (kept in tcp.go behind TCPConfig.Codec as
// the frozen baseline); the TCP publish benchmarks run the same comparison
// end to end over a loopback socket, including the writer's batched
// single-flush drain. The scheduler benchmarks pit the delay line (the
// live Mem scheduler) against a verbatim copy of the seed's global-mutex
// container/heap scheduler under 8 concurrent senders. Bodies live in
// internal/experiment/wirebench.go so streamha-bench -fig wire measures
// exactly the same code.

import (
	"testing"

	"streamha/internal/experiment"
	"streamha/internal/transport"
)

func BenchmarkWireEncode(b *testing.B) {
	b.Run("binary", experiment.BenchWireEncodeBinary)
	b.Run("gob-baseline", experiment.BenchWireEncodeGob)
}

func BenchmarkWireDecode(b *testing.B) {
	b.Run("binary", experiment.BenchWireDecodeBinary)
}

func BenchmarkWireTCPPublish(b *testing.B) {
	b.Run("binary", func(b *testing.B) { experiment.BenchWireTCPPublish(b, transport.CodecBinary) })
	b.Run("gob-baseline", func(b *testing.B) { experiment.BenchWireTCPPublish(b, transport.CodecGob) })
}

func BenchmarkWireSched(b *testing.B) {
	b.Run("delayline", experiment.BenchWireSchedDelayLine)
	b.Run("seed-heap", experiment.BenchWireSchedSeed)
}
