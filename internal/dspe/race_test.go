//go:build race

package dspe

func init() { raceBuild = true }
