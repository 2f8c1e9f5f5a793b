package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"inceptionn/internal/bitio"
	"inceptionn/internal/comm"
	"inceptionn/internal/eventsim"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/gradgen"
	"inceptionn/internal/models"
	"inceptionn/internal/netsim"
	"inceptionn/internal/nic"
	"inceptionn/internal/ring"
	"inceptionn/internal/trainsim"
)

// SelfTest runs the repository's cross-component consistency checks and
// prints one PASS/FAIL line per invariant — a built-in self-test in the
// spirit of hardware BIST, exposed as `incbench -selftest`. It returns an
// error if any check fails.
func SelfTest(w io.Writer, o Options) error {
	rng := rand.New(rand.NewSource(o.Seed))
	failures := 0
	check := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "  [%s] %-52s %s\n", status, name, detail)
	}

	// 1. Codec error bound over a large random sweep.
	{
		bound := fpcodec.MustBound(10)
		worst := 0.0
		for i := 0; i < 200000; i++ {
			v := float32(rng.NormFloat64())
			if fpcodec.TagOf(v, bound) == fpcodec.TagNone {
				continue
			}
			if e := math.Abs(float64(fpcodec.Roundtrip(v, bound)) - float64(v)); e > worst {
				worst = e
			}
		}
		check("codec error bound 2^-10", worst <= bound.MaxError(),
			fmt.Sprintf("worst |err| %.3e <= %.3e", worst, bound.MaxError()))
	}

	// 2. Engine model vs reference codec bit-exactness.
	{
		bound := fpcodec.MustBound(8)
		payload := make([]float32, 1000)
		for i := range payload {
			payload[i] = float32(rng.NormFloat64() * 0.01)
		}
		ce := nic.NewCompressionEngine(bound)
		data, bits := ce.CompressPayload(payload)
		bw := bitio.NewWriter(4 * len(payload))
		fpcodec.CompressStream(bw, payload, bound)
		same := bits == bw.Len()
		if same {
			ref := bw.Bytes()
			for i := range ref {
				if data[i] != ref[i] {
					same = false
					break
				}
			}
		}
		check("NIC engine bit-exact vs reference codec", same,
			fmt.Sprintf("%d bits", bits))
	}

	// 3. The group kernel every compression path runs agrees with the
	// scalar Algorithm 2/3 reference, bit for bit in both directions.
	{
		bound := fpcodec.MustBound(10)
		payload := make([]float32, 777)
		for i := range payload {
			payload[i] = float32(rng.NormFloat64() * 0.05)
		}
		data, bits := fpcodec.AppendGroups(nil, 0, payload, bound)
		// The wire format from the scalar codec: per group of eight, a
		// 16-bit tag vector and then each lane's data bits.
		ref := bitio.NewWriter(4 * len(payload))
		for off := 0; off < len(payload); off += fpcodec.GroupSize {
			group := payload[off:min(off+fpcodec.GroupSize, len(payload))]
			var tags uint64
			var lanes [fpcodec.GroupSize]uint32
			for i, f := range group {
				var tag fpcodec.Tag
				lanes[i], tag = fpcodec.Compress(f, bound)
				tags |= uint64(tag) << (2 * i)
			}
			ref.WriteBits(tags, fpcodec.TagVectorBits)
			for i := range group {
				ref.WriteBits(uint64(lanes[i]), fpcodec.Tag(tags>>(2*i)&0b11).Bits())
			}
		}
		ok := bits == ref.Len() && bytes.Equal(data, ref.Bytes())
		back := make([]float32, len(payload))
		if _, err := fpcodec.DecodeGroups(back, data, 0, bits, bound); err != nil {
			ok = false
		}
		for i, f := range payload {
			ok = ok && math.Float32bits(back[i]) == math.Float32bits(fpcodec.Roundtrip(f, bound))
		}
		check("group kernel bit-exact vs scalar reference", ok, fmt.Sprintf("%d bits", bits))
	}

	// 4. Ring allreduce exactness and replica identity.
	{
		const n, length = 5, 503
		f := comm.NewFabric(n, nil)
		inputs := make([][]float32, n)
		want := make([]float64, length)
		for i := range inputs {
			inputs[i] = make([]float32, length)
			for j := range inputs[i] {
				inputs[i][j] = float32(rng.Intn(100) - 50)
				want[j] += float64(inputs[i][j])
			}
		}
		out := make([][]float32, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g := append([]float32(nil), inputs[i]...)
				errs[i] = ring.AllReduceCtx(context.Background(), f.Endpoint(i), g, 0, nil, ring.Options{})
				out[i] = g
			}(i)
		}
		wg.Wait()
		ok := errors.Join(errs...) == nil
		for node := range out {
			for j := range want {
				if float64(out[node][j]) != want[j] {
					ok = false
				}
			}
		}
		check("ring allreduce exact sum, identical replicas", ok,
			fmt.Sprintf("%d nodes x %d elements", n, length))
	}

	// 5. Table III closed loop: paper fractions -> generator -> encoder.
	{
		row := trainsim.PaperTableIII["AlexNet"][10]
		g, err := gradgen.FromTableIII(10, row.F2, row.F10, row.F18, row.F34, o.Seed)
		if err != nil {
			return err
		}
		_, ratio := g.Validate(150000)
		want := row.Ratio()
		ok := math.Abs(ratio-want)/want < 0.05
		check("Table III closed loop (AlexNet, 2^-10)", ok,
			fmt.Sprintf("measured %.2fx vs implied %.2fx", ratio, want))
	}

	// 6. Event simulator agrees with the closed-form network model.
	{
		np := netsim.Default10GbE()
		np.PerPacketTime = 0
		n := int64(100 << 20)
		ev := eventsim.WorkerAggregatorTimeDelays(eventsim.FromNet(np), 4, float64(n), float64(n), 3*float64(n)/np.SumRate, nil)
		cf := np.WorkerAggregator(4, n, netsim.Plain(n), netsim.Plain(n)).Total()
		rel := math.Abs(ev-cf) / cf
		check("event sim vs closed form (WA exchange)", rel < 0.10,
			fmt.Sprintf("%.4fs vs %.4fs (%.1f%%)", ev, cf, 100*rel))
	}

	// 7. Fig. 12 system ordering under the calibrated simulator.
	{
		cfg := trainsim.Default()
		ok := true
		prev := math.Inf(1)
		for _, sys := range trainsim.Systems() {
			total := cfg.IterTime(sys, models.AlexNet).Total()
			if total > prev {
				ok = false
			}
			prev = total
		}
		check("Fig. 12 ordering WA > WA+C > INC > INC+C", ok, "AlexNet")
	}

	if failures > 0 {
		return fmt.Errorf("experiments: %d self-test checks failed", failures)
	}
	fmt.Fprintln(w, "\n  all self-test checks passed")
	return nil
}
