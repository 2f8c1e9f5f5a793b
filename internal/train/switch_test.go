package train

import (
	"testing"

	"inceptionn/internal/models"
)

func TestSwitchTrainingConverges(t *testing.T) {
	trainDS, testDS := digitsData()
	o := digitsOptions()
	o.Algo = SwitchReduce
	o.SwitchChunk = 4096
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 150, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.9 {
		t.Fatalf("switch training accuracy = %.3f, want > 0.9 (loss %.3f)", res.FinalAcc, res.FinalLoss)
	}
	if res.RawBytes == 0 || res.WireBytes == 0 {
		t.Error("no traffic recorded")
	}
}
