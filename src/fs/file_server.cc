#include "fs/file_server.h"

#include <cassert>

namespace abr::fs {

FileServer::FileServer(driver::AdaptiveDriver* driver,
                       FileServerConfig config)
    : driver_(driver),
      config_(config),
      next_sync_(config.sync_period) {
  assert(driver_ != nullptr);
  cache_ = std::make_unique<BufferCache>(
      config_.cache_blocks,
      [this](std::int32_t device, BlockNo block, bool is_read, Micros t) {
        DiskIo(device, block, is_read, t);
      });
  name_cache_ = std::make_unique<NameCache>(config_.name_cache_entries);
}

Status FileServer::AddFileSystem(std::int32_t device, FfsConfig config) {
  if (file_systems_.contains(device)) {
    return Status::AlreadyExists("device already has a file system");
  }
  const auto& partitions = driver_->label().partitions();
  if (device < 0 ||
      device >= static_cast<std::int32_t>(partitions.size())) {
    return Status::InvalidArgument("no such logical device");
  }
  const disk::Partition& part =
      partitions[static_cast<std::size_t>(device)];
  if (config.block_size_bytes != driver_->config().block_size_bytes) {
    return Status::InvalidArgument(
        "file system block size must match the driver's");
  }
  config.total_blocks = part.sector_count / driver_->block_sectors();
  if (config.total_blocks <= 0) {
    return Status::InvalidArgument("partition too small");
  }
  file_systems_.emplace(device, std::make_unique<Ffs>(config));
  return Status::Ok();
}

StatusOr<Ffs*> FileServer::FileSystemOf(std::int32_t device) {
  auto it = file_systems_.find(device);
  if (it == file_systems_.end()) {
    return Status::NotFound("no file system on device");
  }
  return it->second.get();
}

void FileServer::DiskIo(std::int32_t device, BlockNo block, bool is_read,
                        Micros t) {
  Status s = driver_->SubmitBlock(
      device, block, is_read ? sched::IoType::kRead : sched::IoType::kWrite,
      t);
  assert(s.ok());
  (void)s;
}

Status FileServer::TouchInode(std::int32_t device, FileId file, Micros t) {
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<BlockNo> inode_block = (*fs)->InodeBlock(file);
  if (!inode_block.ok()) return inode_block.status();
  // The i-node itself lives in the kernel's separate i-node cache (SunOS
  // pins active i-nodes in core), so the timestamp update dirties the
  // block without a disk read; the periodic update policy writes it back.
  cache_->Write(device, *inode_block, t);
  return Status::Ok();
}

StatusOr<FileId> FileServer::CreateFile(std::int32_t device, Micros t,
                                        std::int32_t group_hint) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<FileId> file = (*fs)->CreateFile(group_hint);
  if (!file.ok()) return file.status();
  ABR_RETURN_IF_ERROR(TouchInode(device, *file, t));
  return file;
}

StatusOr<FileId> FileServer::CreateDirectory(std::int32_t device, Micros t,
                                             FileId parent) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<FileId> dir = (*fs)->CreateDirectory(parent);
  if (!dir.ok()) return dir.status();
  // Dirty the creation's metadata: the new i-node and the parent's entry
  // block (the path's last two lookup blocks cover exactly those).
  StatusOr<std::vector<BlockNo>> path = (*fs)->LookupBlocks(*dir);
  if (!path.ok()) return path.status();
  for (std::size_t i = path->size() >= 2 ? path->size() - 2 : 0;
       i < path->size(); ++i) {
    cache_->Write(device, (*path)[i], t);
  }
  return dir;
}

StatusOr<FileId> FileServer::CreateFileIn(std::int32_t device,
                                          FileId directory, Micros t) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<FileId> file = (*fs)->CreateFileIn(directory);
  if (!file.ok()) return file.status();
  StatusOr<std::vector<BlockNo>> path = (*fs)->LookupBlocks(*file);
  if (!path.ok()) return path.status();
  for (std::size_t i = path->size() >= 2 ? path->size() - 2 : 0;
       i < path->size(); ++i) {
    cache_->Write(device, (*path)[i], t);
  }
  return file;
}

StatusOr<BlockNo> FileServer::AppendBlock(std::int32_t device, FileId file,
                                          Micros t) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<BlockNo> block = (*fs)->AppendBlock(file);
  if (!block.ok()) return block.status();
  cache_->Write(device, *block, t);
  ABR_RETURN_IF_ERROR(TouchInode(device, file, t));
  return block;
}

StatusOr<std::int64_t> FileServer::OpenFile(std::int32_t device, FileId file,
                                            Micros t) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  if (name_cache_->Lookup(device, file)) {
    // DNLC hit: the path is already resolved; only the file's i-node is
    // consulted.
    StatusOr<BlockNo> inode_block = (*fs)->InodeBlock(file);
    if (!inode_block.ok()) return inode_block.status();
    return cache_->Read(device, *inode_block, t) ? 0 : 1;
  }
  StatusOr<std::vector<BlockNo>> path = (*fs)->LookupBlocks(file);
  if (!path.ok()) return path.status();
  std::int64_t misses = 0;
  for (BlockNo block : *path) {
    if (!cache_->Read(device, block, t)) ++misses;
  }
  name_cache_->Insert(device, file);
  return misses;
}

StatusOr<bool> FileServer::ReadFileBlock(std::int32_t device, FileId file,
                                         std::int64_t index, Micros t) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<BlockNo> block = (*fs)->FileBlock(file, index);
  if (!block.ok()) return block.status();
  const bool hit = cache_->Read(device, *block, t);
  if (config_.update_atime) {
    ABR_RETURN_IF_ERROR(TouchInode(device, file, t));
  }
  return hit;
}

Status FileServer::WriteFileBlock(std::int32_t device, FileId file,
                                  std::int64_t index, Micros t) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<BlockNo> block = (*fs)->FileBlock(file, index);
  if (!block.ok()) return block.status();
  cache_->Write(device, *block, t);
  return TouchInode(device, file, t);
}

Status FileServer::DeleteFile(std::int32_t device, FileId file, Micros t) {
  AdvanceTo(t);
  StatusOr<Ffs*> fs = FileSystemOf(device);
  if (!fs.ok()) return fs.status();
  StatusOr<std::int64_t> size = (*fs)->FileSize(file);
  if (!size.ok()) return size.status();
  StatusOr<BlockNo> inode_block = (*fs)->InodeBlock(file);
  if (!inode_block.ok()) return inode_block.status();
  for (std::int64_t i = 0; i < *size; ++i) {
    StatusOr<BlockNo> block = (*fs)->FileBlock(file, i);
    assert(block.ok());
    cache_->Invalidate(device, *block);
  }
  ABR_RETURN_IF_ERROR((*fs)->DeleteFile(file));
  name_cache_->Invalidate(device, file);
  cache_->Write(device, *inode_block, t);  // i-node freed on disk
  return Status::Ok();
}

void FileServer::RunSyncsUntil(Micros t) {
  while (next_sync_ <= t) {
    // The driver's clock may already be past the sync's due time; the
    // sync's writes then simply queue behind the work in progress.
    if (next_sync_ > driver_->now()) driver_->AdvanceTo(next_sync_);
    cache_->SyncAll(next_sync_);
    next_sync_ += config_.sync_period;
  }
}

void FileServer::AdvanceTo(Micros t) {
  RunSyncsUntil(t);
  if (t > driver_->now()) driver_->AdvanceTo(t);
}

void FileServer::FlushAndDrain() {
  cache_->SyncAll(driver_->now());
  driver_->Drain();
}

}  // namespace abr::fs
