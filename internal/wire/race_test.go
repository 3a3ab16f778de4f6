//go:build race

package wire

func init() { raceBuild = true }
