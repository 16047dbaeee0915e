//go:build linux && arm64

package qtpnet

import "syscall"

const (
	sysRecvmmsg = syscall.SYS_RECVMMSG
	sysSendmmsg = syscall.SYS_SENDMMSG
)
