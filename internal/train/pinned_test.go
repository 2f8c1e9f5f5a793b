package train

import (
	"math"
	"runtime"
	"testing"

	"inceptionn/internal/data"
	"inceptionn/internal/frame"
	"inceptionn/internal/models"
)

// pinnedRun is what one short single-replica run ends on: the CRC32-C of
// the final weights' bit patterns and the bits of the final test loss.
type pinnedRun struct {
	weights uint32
	loss    uint64
}

// pinnedArithmetic was captured at the commit before the tensor kernels
// were rewritten (PR 23's parent, the scalar i-k-j loops) by running this
// same test there, and is never regenerated from current code: it is the
// only gate that notices a kernel moving every runner's arithmetic
// equally — TestFixedRunnersBitIdenticalToRing compares runners with each
// other. Keyed by GOARCH because a port that fuses x*y+z into one FMA
// legitimately differs from amd64 in the last bit, at the parent too.
var pinnedArithmetic = map[string]map[string]pinnedRun{
	"amd64": {
		"hdc-small":    {weights: 0xdaae51c7, loss: 0x400248228dacf3c5},
		"hdc":          {weights: 0xbcd810b2, loss: 0x4003e8296a4c4a81},
		"mini-alexnet": {weights: 0x0ec40f79, loss: 0x400230adb80d2535},
	},
}

// TestTrainingArithmeticPinned trains each benchmark model family for six
// iterations at batch 5 (odd, so every kernel's k- and n-tail runs; weight
// decay and momentum on, so both SGD expressions run) and requires the
// weights and the evaluation loss bit for bit as the parent computed them.
func TestTrainingArithmeticPinned(t *testing.T) {
	want, ok := pinnedArithmetic[runtime.GOARCH]
	if !ok {
		t.Skipf("no constants captured for GOARCH=%s", runtime.GOARCH)
	}
	digitsTrain, digitsTest := digitsData()
	imagesTrain, imagesTest := data.NewImages(400, 1), data.NewImages(100, 99)
	for _, c := range []struct {
		name          string
		build         Builder
		trainDS, test data.Dataset
	}{
		{"hdc-small", models.NewHDCSmall, digitsTrain, digitsTest},
		{"hdc", models.NewHDC, digitsTrain, digitsTest},
		{"mini-alexnet", models.NewMiniAlexNet, imagesTrain, imagesTest},
	} {
		o := digitsOptions()
		o.BatchPerNode = 5
		o.EvalSamples = 100
		res := RunSingle(c.build, c.trainDS, c.test, 6, o)
		got := pinnedRun{frame.ChecksumF32s(res.FinalWeights), math.Float64bits(res.FinalLoss)}
		if got != want[c.name] {
			t.Errorf("%s: weights crc %#08x loss bits %#016x (%v), pinned %#08x %#016x",
				c.name, got.weights, got.loss, res.FinalLoss, want[c.name].weights, want[c.name].loss)
		}
	}
}
