//go:build !amd64

package cpu

// Off amd64 there is no assembly: every kernel runs its portable path.
const (
	GFNI        = false
	AVX512      = false
	AVX512CLMUL = false
)
