package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// host is the metadata recorded with every result. Numbers from hosts
// that differ in any of these, the journal's filesystem above all (fsync
// cost differs by more than half between ext4 and tmpfs), are not
// comparable.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Hostname   string `json:"hostname"`
	Users      int    `json:"users"`
	JournalFS  string `json:"journal_fs"`
}

func hostInfo(journalDir string, users int) host {
	name, _ := os.Hostname() // diagnostic only
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Hostname:   name,
		Users:      users,
		JournalFS:  fsType(journalDir),
	}
}

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
