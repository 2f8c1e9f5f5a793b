package comm

import (
	"math"
	"math/rand"
	"testing"

	"inceptionn/internal/fpcodec"
)

// wrapped hides its processor's in-tree method, so ProcessInto takes the
// Process-then-copy path any other processor takes.
type wrapped struct{ WireProcessor }

// processInputs returns a payload of n floats for bound e: random values
// of every class mixed with the codec's edge cases — NaNs with payload
// bits, ±0, ±Inf, denormals, the smallest normal, and each tag boundary
// (1, 2^-e, 2^-s8) with its neighbours one ulp either side, both signs.
func processInputs(rng *rand.Rand, n, e int) []float32 {
	edges := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa5a5a5), math.Float32frombits(0x7f800001),
		math.Float32frombits(1), math.Float32frombits(0x007fffff), math.Float32frombits(0x80000001),
		math.Float32frombits(0x00800000),
	}
	for _, b := range []float64{1, math.Ldexp(1, -e), math.Ldexp(1, -max(e-7, 0))} {
		v := float32(b)
		edges = append(edges, v, math.Nextafter32(v, 0), math.Nextafter32(v, 2), -v, -math.Nextafter32(v, 0))
	}
	p := make([]float32, n)
	for i := range p {
		switch rng.Intn(3) {
		case 0:
			p[i] = edges[rng.Intn(len(edges))]
		case 1:
			p[i] = float32(rng.NormFloat64() * math.Ldexp(1, -rng.Intn(16)))
		default:
			p[i] = math.Float32frombits(rng.Uint32())
		}
	}
	return p
}

// TestProcessIntoMatchesProcess: what ProcessInto writes is what Process
// returns, bit for bit, with the same wire bytes, into a separate buffer
// and in place (dst == payload), for both ToS values, on the in-tree
// processors and on one ProcessInto knows only by its Process. A
// compressed payload, which the codec processors take a section at a
// time, is each value's scalar roundtrip and costs the bytes of the
// payload's one-pass stream.
func TestProcessIntoMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, e := range []int{6, 10} {
		bound := fpcodec.MustBound(e)
		procs := map[string]WireProcessor{
			"identity": IdentityProcessor{},
			"codec":    CodecProcessor{Bound: bound},
			"wrapped":  wrapped{CodecProcessor{Bound: bound}},
		}
		for name, proc := range procs {
			for _, n := range []int{0, 1, 7, 8, 9, 4095, 4096, 4097, 3*4096 + 9} {
				for _, tos := range []uint8{0, ToSCompress} {
					payload := processInputs(rng, n, e)
					kept := append([]float32(nil), payload...)
					want, wantBytes := proc.Process(payload, tos)
					want = append([]float32(nil), want...)
					if name != "identity" && tos == ToSCompress {
						stream, _ := fpcodec.AppendGroups(nil, 0, payload, bound)
						ref := make([]float32, n)
						for i, v := range payload {
							ref[i] = fpcodec.Roundtrip(v, bound)
						}
						requireSameBits(t, name, e, n, tos, "against the scalar roundtrip", want, ref, wantBytes, int64(len(stream)))
					}

					dst := make([]float32, n)
					for i := range dst {
						dst[i] = math.Float32frombits(rng.Uint32())
					}
					gotBytes := ProcessInto(proc, dst, payload, tos)
					requireSameBits(t, name, e, n, tos, "into a separate buffer", dst, want, gotBytes, wantBytes)
					requireSameBits(t, name, e, n, tos, "leaving the payload", payload, kept, 0, 0)

					gotBytes = ProcessInto(proc, payload, payload, tos)
					requireSameBits(t, name, e, n, tos, "in place", payload, want, gotBytes, wantBytes)
				}
			}
		}
	}
}

func requireSameBits(t *testing.T, proc string, e, n int, tos uint8, how string, got, want []float32, gotBytes, wantBytes int64) {
	t.Helper()
	if gotBytes != wantBytes {
		t.Errorf("%s 2^-%d n=%d tos %#x %s: %d wire bytes, want %d", proc, e, n, tos, how, gotBytes, wantBytes)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s 2^-%d n=%d tos %#x %s: value %d is %#08x, want %#08x",
				proc, e, n, tos, how, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}
