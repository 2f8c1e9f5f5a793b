package nn

import (
	"math"

	"inceptionn/internal/tensor"
)

// SoftmaxCrossEntropy combines the softmax activation with the
// cross-entropy loss, the standard classification head.
type SoftmaxCrossEntropy struct{}

// Loss returns the mean cross-entropy over the batch and the gradient
// ∂L/∂logits. logits is [B, classes]; labels holds B class indices.
func (SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	batch, classes := logits.Shape[0], logits.Shape[1]
	if len(labels) != batch {
		panic("nn: label count mismatch")
	}
	grad := tensor.New(batch, classes)
	var total float64
	invB := 1 / float64(batch)
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		// Numerically stable softmax.
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		label := labels[b]
		total += -(float64(row[label]-maxv) - logSum)
		grow := grad.Data[b*classes : (b+1)*classes]
		for j, v := range row {
			p := math.Exp(float64(v-maxv)) / sum
			grow[j] = float32(p * invB)
		}
		grow[label] -= float32(invB)
	}
	return total * invB, grad
}

// Predict returns the argmax class for each row of logits.
func Predict(logits *tensor.Tensor) []int {
	batch, classes := logits.Shape[0], logits.Shape[1]
	out := make([]int, batch)
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[b] = best
	}
	return out
}
