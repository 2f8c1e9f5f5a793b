//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package tcpfabric

// wireIsMemory: a big-endian float32 is stored byte-reversed from INCP's
// plain body format, so a plain frame is converted with frame.PutF32s and
// frame.F32s, as a compressed one is with the codec.
const wireIsMemory = false
