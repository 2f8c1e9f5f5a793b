//go:build 386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mipsle || mips64le || mips64p32le || nios2 || ppc64le || riscv || riscv64 || sh || wasm

package tcpfabric

// wireIsMemory: a little-endian float32 is stored as INCP's plain body
// format, so a plain frame is sent from and read into its floats' memory.
const wireIsMemory = true
