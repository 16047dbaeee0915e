//go:build linux && amd64

package qtpnet

import "syscall"

// The syscall package predates sendmmsg on amd64, so its number is
// spelled out here; recvmmsg made the generated table.
const (
	sysRecvmmsg = syscall.SYS_RECVMMSG
	sysSendmmsg = 307
)
