// Seeded violations for the raw-mmap rule. No file in the tree may
// touch the mmap syscall family: operands are read with plain reads.
// This file is an audit fixture, not part of the build.

#include <cstddef>
#include <sys/mman.h>

void *
badMap(int fd, std::size_t bytes)
{
    return ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0); // expect(raw-mmap)
}

void
badUnmap(void *addr, std::size_t bytes)
{
    ::munmap(addr, bytes); // expect(raw-mmap)
}

void
badSync(void *addr, std::size_t bytes)
{
    msync(addr, bytes, MS_SYNC); // expect(raw-mmap)
}

void *
badRemap(void *addr, std::size_t old_bytes, std::size_t new_bytes)
{
    return mremap(addr, old_bytes, new_bytes, MREMAP_MAYMOVE); // expect(raw-mmap)
}

// Naming a mapping in a comment or passing one along is fine; only
// the syscalls themselves are fenced.
void *
okMention(void *mmap_result)
{
    return mmap_result; // an mmap result, not an mmap call
}

// A justified suppression reads like this and reports nothing:
void *
allowedProbe(int fd, std::size_t bytes)
{
    // sparch-audit: allow(raw-mmap, fixture demonstrates an accepted
    // suppression - probing the kernel's map limit, never keeping it)
    return ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
}
