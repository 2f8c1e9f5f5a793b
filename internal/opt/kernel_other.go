//go:build !amd64

package opt

// Without a SIMD port the Go loop in opt.go is the whole update.

func step(w, v, g []float32, scale, decay, mom, lr float32) { stepGo(w, v, g, scale, decay, mom, lr) }
